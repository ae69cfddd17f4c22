//! The paper's latency figures as rows of one table, and the session
//! baselines built on the same conversions.
//!
//! Every experiment of the evaluation that compares a strict system with
//! its relaxed twin (Fig. 4–7, §7.4, the two ablations) is one `Experiment`
//! row: what it reproduces, what the paper expects, the axis points for a
//! full and a `--quick` run, and one function that runs either twin at one
//! point. One loop runs both twins at every point, certifies both, and
//! prints one column set. Results are deterministic in the table's seeds.

use std::process::ExitCode;

use regular_gryff::prelude as gryff;
use regular_sim::metrics::LatencyRecorder;
use regular_sim::time::SimDuration;
use regular_spanner::prelude as spanner;
use regular_sweep::Json;

use crate::cli::Args;
use crate::report::{emit, ms, round2, Cell, Report, Rule};
use crate::runs::{
    reduction_pct, run_gryff_ycsb, run_spanner_blocked_reader, run_spanner_overhead,
    run_spanner_retwis, GryffRunParams, RetwisRunParams,
};

/// What one run contributes to a figure, whichever protocol produced it.
pub struct Outcome {
    /// Which twin ran.
    pub variant: &'static str,
    /// Read-only transaction / read latencies over the measurement window.
    pub reads: LatencyRecorder,
    /// Read-write transaction / write latencies.
    pub writes: LatencyRecorder,
    /// Simulated operations per second over the measurement window.
    pub throughput: f64,
    /// The protocol's own counters, by column name.
    pub counters: Vec<(&'static str, u64)>,
    /// Why `verify_run` rejected the run's history, if it did.
    pub violation: Option<String>,
}

impl From<spanner::RunResult> for Outcome {
    fn from(run: spanner::RunResult) -> Outcome {
        let shards = |count: fn(&regular_spanner::shard::ShardStats) -> u64| {
            run.shard_stats.iter().map(count).sum()
        };
        Outcome {
            variant: match run.mode {
                spanner::Mode::Spanner => "spanner",
                spanner::Mode::SpannerRss => "spanner-rss",
            },
            violation: spanner::verify_run(&run).err().map(|v| format!("{v:?}")),
            counters: vec![
                ("blocked", shards(|s| s.ro_blocked)),
                ("immediate", shards(|s| s.ro_immediate)),
                ("skipped", shards(|s| s.ro_skipped_prepared)),
                ("messages", run.net_stats.delivered),
            ],
            reads: run.ro_latencies,
            writes: run.rw_latencies,
            throughput: run.throughput,
        }
    }
}

impl From<gryff::GryffRunResult> for Outcome {
    fn from(run: gryff::GryffRunResult) -> Outcome {
        Outcome {
            variant: match run.mode {
                gryff::Mode::Gryff => "gryff",
                gryff::Mode::GryffRsc => "gryff-rsc",
            },
            violation: gryff::verify_run(&run).err().map(|v| format!("{v:?}")),
            counters: vec![
                ("read_ops", run.client_stats.reads),
                ("slow_reads", run.client_stats.slow_reads),
                ("deps_piggybacked", run.client_stats.deps_piggybacked),
                ("messages", run.net_stats.delivered),
            ],
            reads: run.read_latencies,
            writes: run.write_latencies,
            throughput: run.throughput,
        }
    }
}

/// Which of a run's latencies a row reports.
#[derive(Clone, Copy)]
enum Class {
    Reads,
    Writes,
    /// Reads and writes merged (the throughput-vs-latency figures).
    All,
}

impl Class {
    fn name(self) -> &'static str {
        match self {
            Class::Reads => "reads",
            Class::Writes => "writes",
            Class::All => "all",
        }
    }

    fn of(self, outcome: &Outcome) -> LatencyRecorder {
        match self {
            Class::Reads => outcome.reads.clone(),
            Class::Writes => outcome.writes.clone(),
            Class::All => {
                let mut all = outcome.reads.clone();
                all.merge(&outcome.writes);
                all
            }
        }
    }
}

/// One swept parameter: its name, its values on a full run and on `--quick`.
struct Axis(&'static str, &'static [f64], &'static [f64]);

/// One point of an experiment: a value per axis, the load duration and seed.
struct Point {
    at: Vec<f64>,
    secs: u64,
    seed: u64,
}

/// One experiment of the paper's evaluation.
struct Experiment {
    name: &'static str,
    /// What it reproduces, and how.
    title: &'static str,
    /// What the paper says the rows should show.
    expectation: &'static str,
    axes: &'static [Axis],
    /// Simulated seconds of load on a full run and on `--quick`.
    secs: (u64, u64),
    seed: u64,
    classes: &'static [Class],
    /// Runs the strict twin (`relaxed == false`) or the relaxed one.
    run: fn(&Point, bool) -> Outcome,
}

fn spanner_mode(relaxed: bool) -> spanner::Mode {
    if relaxed {
        spanner::Mode::SpannerRss
    } else {
        spanner::Mode::Spanner
    }
}

fn gryff_mode(relaxed: bool) -> gryff::Mode {
    if relaxed {
        gryff::Mode::GryffRsc
    } else {
        gryff::Mode::Gryff
    }
}

/// Retwis over the WAN at this point's duration and seed. Like the paper, the
/// offered load is calibrated per workload to stay at 70-80% of the
/// contention-limited capacity: the 0.9-skew workload is driven at a lower
/// session arrival rate because its hottest keys are close to lock saturation.
fn retwis(p: &Point, relaxed: bool, params: RetwisRunParams) -> Outcome {
    let arrival_rate = if params.skew >= 0.85 { 3.0 } else { 4.0 };
    let params = RetwisRunParams { arrival_rate, duration_secs: p.secs, seed: p.seed, ..params };
    run_spanner_retwis(spanner_mode(relaxed), &params).into()
}

/// YCSB against Gryff at this point's duration and seed.
fn ycsb(p: &Point, relaxed: bool, params: GryffRunParams) -> Outcome {
    let params = GryffRunParams { duration_secs: p.secs, seed: p.seed, ..params };
    run_gryff_ycsb(gryff_mode(relaxed), &params, 1).into()
}

const WRITE_RATIOS: [f64; 9] = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9];

const TABLE: [Experiment; 8] = [
    Experiment {
        name: "fig4",
        title: "Figure 4: RO latency while a conflicting RW transaction is prepared (one \
                writer holds a two-shard transaction on two hot keys, two readers read them)",
        expectation: "Spanner's reader frequently waits for the writer's two-phase commit to \
                      finish; Spanner-RSS's reader returns old values immediately and its tail \
                      latency stays near the single round-trip time.",
        axes: &[],
        secs: (60, 60),
        seed: 2,
        classes: &[Class::Reads],
        run: |p, relaxed| run_spanner_blocked_reader(spanner_mode(relaxed), p.secs, p.seed).into(),
    },
    Experiment {
        name: "fig5",
        title: "Figure 5: RO transaction tail latency (Retwis, partly-open clients in CA/VA/IR)",
        expectation: "the distributions coincide up to a high percentile and Spanner-RSS cuts \
                      the tail beyond it, more with more skew (the paper: by up to ~49%); RW \
                      latency does not get worse.",
        axes: &[Axis("skew", &[0.5, 0.7, 0.9], &[0.5, 0.7, 0.9])],
        secs: (150, 30),
        seed: 42,
        classes: &[Class::Reads, Class::Writes],
        run: |p, relaxed| {
            retwis(p, relaxed, RetwisRunParams { skew: p.at[0], ..Default::default() })
        },
    },
    Experiment {
        name: "fig6",
        title: "Figure 6: throughput vs latency under load (single DC, 8 shards, uniform \
                50% RO, TrueTime error zero)",
        expectation: "the two curves coincide — Spanner-RSS does not reduce maximum throughput \
                      and its latency stays within a few milliseconds of Spanner's.",
        axes: &[Axis(
            "sessions",
            &[4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0],
            &[8.0, 32.0, 128.0],
        )],
        secs: (10, 10),
        seed: 7,
        classes: &[Class::All],
        run: |p, relaxed| {
            run_spanner_overhead(spanner_mode(relaxed), p.at[0] as usize, 1, p.secs, p.seed).into()
        },
    },
    Experiment {
        name: "fig7",
        title: "Figure 7 and §7.3: p99 / p99.9 read latency vs write ratio (YCSB, five replicas \
                over the Table 2 WAN, 16 closed-loop clients)",
        expectation: "with 2% conflicts both systems sit at the one-round-trip p99; at 10% and \
                      25% conflicts Gryff's p99 grows with the write ratio (slow-path reads) \
                      while Gryff-RSC stays at the one-round-trip latency — roughly a 40% p99 \
                      reduction, and about 50% at p99.9.",
        axes: &[
            Axis("conflict", &[0.02, 0.10, 0.25], &[0.02, 0.10, 0.25]),
            Axis("write_ratio", &WRITE_RATIOS, &[0.1, 0.5, 0.9]),
        ],
        secs: (120, 30),
        seed: 42,
        classes: &[Class::Reads],
        run: |p, relaxed| {
            let (conflict_rate, write_ratio) = (p.at[0], p.at[1]);
            ycsb(p, relaxed, GryffRunParams { conflict_rate, write_ratio, ..Default::default() })
        },
    },
    Experiment {
        name: "ablation-spanner",
        title: "Ablation: Spanner-RSS with (1) and without (0) the t_ee fast path (Retwis, \
                skew 0.9) — without it an RO waits for every conflicting prepared transaction",
        expectation: "without the skip Spanner-RSS's RO tail falls back to Spanner's.",
        axes: &[Axis("tee_skip", &[1.0, 0.0], &[1.0, 0.0])],
        secs: (120, 30),
        seed: 42,
        classes: &[Class::Reads],
        run: |p, relaxed| {
            let disable_tee_skip = p.at[0] == 0.0;
            retwis(
                p,
                relaxed,
                RetwisRunParams { skew: 0.9, disable_tee_skip, ..Default::default() },
            )
        },
    },
    Experiment {
        name: "ablation-spanner",
        title: "Ablation: TrueTime uncertainty ε sweep (Retwis, skew 0.7) — larger ε lengthens \
                commit wait and with it the window in which an RO can block",
        expectation: "Spanner's RO tail grows with ε; Spanner-RSS's stays near one round trip.",
        axes: &[Axis("epsilon_ms", &[0.0, 5.0, 10.0, 25.0], &[0.0, 5.0, 10.0, 25.0])],
        secs: (120, 30),
        seed: 42,
        classes: &[Class::Reads],
        run: |p, relaxed| {
            let truetime_epsilon = SimDuration::from_millis(p.at[0] as u64);
            retwis(
                p,
                relaxed,
                RetwisRunParams { skew: 0.7, truetime_epsilon, ..Default::default() },
            )
        },
    },
    Experiment {
        name: "ablation-gryff",
        title: "Ablation: write-back round trips vs piggybacked dependencies (YCSB, write \
                ratio 0.5) — how a read that disagrees at its quorum is resolved",
        expectation: "Gryff pays a second round trip per slow read; Gryff-RSC piggybacks a \
                      dependency instead, with no extra messages and a flat p99.",
        axes: &[Axis("conflict", &[0.02, 0.10, 0.25, 0.50], &[0.02, 0.10, 0.25, 0.50])],
        secs: (60, 20),
        seed: 42,
        classes: &[Class::Reads],
        run: |p, relaxed| {
            ycsb(p, relaxed, GryffRunParams { conflict_rate: p.at[0], ..Default::default() })
        },
    },
    Experiment {
        name: "gryff-overhead",
        title: "§7.4: Gryff-RSC's overhead — throughput and latency in one data center, YCSB-A \
                (50% writes) and YCSB-B (5% writes), 10% conflicts, increasing client counts",
        expectation: "Gryff-RSC's throughput and latency are within ~1% of Gryff's.",
        axes: &[
            Axis("write_ratio", &[0.5, 0.05], &[0.5, 0.05]),
            Axis("clients", &[8.0, 16.0, 32.0, 64.0, 128.0, 256.0], &[16.0, 64.0]),
        ],
        secs: (10, 5),
        seed: 11,
        classes: &[Class::All],
        run: |p, relaxed| {
            let (write_ratio, clients) = (p.at[0], p.at[1] as usize);
            ycsb(
                p,
                relaxed,
                GryffRunParams { write_ratio, clients, wan: false, ..Default::default() },
            )
        },
    },
];

/// The one latency column set; it subsumes the tail rows and the CDF tables.
const PERCENTILES: [(&str, f64); 6] = [
    ("p50", 50.0),
    ("p90", 90.0),
    ("p99", 99.0),
    ("p99.5", 99.5),
    ("p99.9", 99.9),
    ("p99.99", 99.99),
];

/// Runs both twins at every point of `experiment` and appends one row per
/// (point, twin, latency class). Every cell is deterministic, hence `exact`.
fn run_experiment(experiment: &Experiment, quick: bool, report: &mut Report) {
    use Rule::Exact;
    let secs = if quick { experiment.secs.1 } else { experiment.secs.0 };
    let mut points = vec![Vec::new()];
    for Axis(_, full, fast) in experiment.axes {
        let values = if quick { fast } else { full };
        points = points
            .iter()
            .flat_map(|at: &Vec<f64>| values.iter().map(move |v| [at.as_slice(), &[*v]].concat()))
            .collect();
    }
    for at in points {
        let labels = experiment.axes.iter().zip(&at).map(|(axis, v)| format!("{}={v}", axis.0));
        let label = labels.collect::<Vec<_>>().join(",");
        let point = Point { at, secs, seed: experiment.seed };
        let strict = (experiment.run)(&point, false);
        let relaxed = (experiment.run)(&point, true);
        for class in experiment.classes {
            let mut base = class.of(&strict);
            for (outcome, is_relaxed) in [(&strict, false), (&relaxed, true)] {
                let mut latency = class.of(outcome);
                let mut cells: Vec<Cell> = vec![("n", Exact, Json::u64(latency.len() as u64))];
                cells.extend(PERCENTILES.map(|(name, p)| (name, Exact, ms(latency.percentile(p)))));
                cells.push(("max", Exact, ms(latency.max())));
                // How much of the strict twin's tail the relaxed twin removes.
                for (name, p) in [("cut_p99_pct", 99.0), ("cut_p99.9_pct", 99.9)] {
                    let cut = reduction_pct(base.percentile(p), latency.percentile(p));
                    let cut = if is_relaxed { Json::f64(round2(cut)) } else { Json::Null };
                    cells.push((name, Exact, cut));
                }
                cells.push(("throughput", Exact, Json::f64(round2(outcome.throughput))));
                cells
                    .extend(outcome.counters.iter().map(|(name, n)| (*name, Exact, Json::u64(*n))));
                cells.push(("certified", Rule::True, Json::Bool(outcome.violation.is_none())));
                if let Some(violation) = &outcome.violation {
                    eprintln!("NOT CERTIFIED  {label} seed {}: {violation}", point.seed);
                }
                let parts = [experiment.name, &label, outcome.variant, class.name()];
                let name = parts.iter().filter(|part| !part.is_empty()).copied();
                report.push(name.collect::<Vec<_>>().join("/"), cells);
            }
        }
    }
}

/// The rows of every experiment called `name` (or of all of them), as the
/// `paper` report; `None` if the table has no such experiment.
pub fn paper_report(name: &str, quick: bool) -> Option<Report> {
    let params = vec![("experiment", Json::str(name)), ("quick", Json::Bool(quick))];
    let mut report = Report::new("paper", params);
    for experiment in TABLE.iter().filter(|e| name == "all" || e.name == name) {
        println!("-- {}: {}", experiment.name, experiment.title);
        println!("   expectation (paper): {}", experiment.expectation);
        run_experiment(experiment, quick, &mut report);
    }
    (!report.rows.is_empty()).then_some(report)
}

/// The `paper` subcommand.
pub fn paper(mut args: Args) -> Result<ExitCode, String> {
    let (quick, out) = (args.flag("--quick"), args.out()?);
    let name = args.positional("an experiment name")?;
    args.finish()?;
    let report = paper_report(&name, quick).ok_or(format!("unknown experiment '{name}'"))?;
    emit(&report, out.as_deref())
}

/// The `baseline` subcommand: Spanner-RSS and Gryff-RSC with closed-loop
/// sessions at pipelining depths 1, 4 and 16 (batch 1 reproduces the paper's
/// one-outstanding-operation sessions). Simulated, so every number is
/// deterministic in the seed and gated `exact`.
pub fn baseline(mut args: Args) -> Result<ExitCode, String> {
    use Rule::Exact;
    let out = args.out()?;
    args.finish()?;
    let params = vec![
        (
            "spanner-rss-single-dc",
            Json::str("8 shards, 32 closed-loop sessions, uniform 50% RO, 10 s, seed 7"),
        ),
        (
            "gryff-rsc-wan",
            Json::str(
                "5 regions, 16 closed-loop clients, YCSB 50% writes / 10% conflicts, 60 s, seed 42",
            ),
        ),
    ];
    let mut report = Report::new("baseline", params);
    let mut push = |name: String, mut outcome: Outcome| {
        if let Some(violation) = &outcome.violation {
            eprintln!("NOT CERTIFIED  {name}: {violation}");
        }
        let cells = vec![
            ("throughput", Exact, Json::f64(round2(outcome.throughput))),
            ("reads_p50", Exact, ms(outcome.reads.percentile(50.0))),
            ("reads_p99", Exact, ms(outcome.reads.percentile(99.0))),
            ("writes_p50", Exact, ms(outcome.writes.percentile(50.0))),
            ("writes_p99", Exact, ms(outcome.writes.percentile(99.0))),
            ("certified", Rule::True, Json::Bool(outcome.violation.is_none())),
        ];
        report.push(name, cells);
    };
    for batch in [1, 4, 16] {
        let run = run_spanner_overhead(spanner::Mode::SpannerRss, 32, batch, 10, 7);
        push(format!("spanner-rss-single-dc-batch-{batch}"), run.into());
    }
    for batch in [1, 4, 16] {
        let params = GryffRunParams { duration_secs: 60, ..GryffRunParams::default() };
        let run = run_gryff_ycsb(gryff::Mode::GryffRsc, &params, batch);
        push(format!("gryff-rsc-wan-batch-{batch}"), run.into());
    }
    emit(&report, out.as_deref())
}
