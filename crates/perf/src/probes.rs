//! Per-layer probes: harness-timed calls into each layer's public
//! functions at the *workload's own shapes* (n = state dimension, N =
//! members decided, k = retained rank), from outside the program. Each
//! probe is also a span on the harness's own recorder, so the layer
//! ledger can be opened as a trace next to the run's.
//!
//! Inputs are synthetic and come from the seed alone: the scenario's
//! mean, a seeded prior, perturbed states standing in for member
//! forecasts (white noise added so the spread matrix has full rank, as
//! real forecasts with model error do).

use crate::stats::{median, Summary};
use crate::workloads::{self, sibling, Scenario, ScenarioInputs};
use esse::cli::files;
use esse::core::convergence::similarity;
use esse::core::covariance::SpreadAccumulator;
use esse::core::model::PeForecastModel;
use esse::core::perturb::{PerturbConfig, PerturbationGenerator};
use esse::core::subspace::{
    FullRecompute, IncrementalEstimator, SubspaceEstimator, SubspaceUpdate, UpdateKind,
};
use esse::core::validate::{ForecastValidator, ValidatorConfig};
use esse::core::ForecastModel;
use esse::fileio;
use esse::linalg::{LinalgCtx, Matrix, Svd, SymEigen};
use esse::mtc::journal::{encode_subspace_blob, Journal, JournalRecord};
use esse::mtc::pool::{Heartbeat, PoolManifest, ResultRecord, TaskPool, TaskSpec};
use esse::mtc::transport::{ClaimOutcome, DiskTransport, PoolTransport};
use esse::mtc::DiskTripleBuffer;
use esse::net::{frame, Message, NetMetrics, NetServer, ServerConfig, TcpConfig, TcpTransport};
use esse::ocean::OceanState;
use esse_obs::event::Lane;
use esse_obs::recorder::{Recorder, RecorderExt, NULL};
use esse_obs::ring::RingRecorder;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What the probes are sized by.
pub struct Shapes {
    /// The workload's scenario (grid, horizon).
    pub sc: Scenario,
    /// N: members the workload decides.
    pub members: usize,
    /// Records in the run's journal (0 when the workload keeps none).
    pub journal_records: u64,
    /// Seed of every synthetic input.
    pub seed: u64,
    /// Smaller sample budgets (`--quick`).
    pub quick: bool,
}

/// Probe results: metric name → summary in the metric's unit.
pub type Measured = BTreeMap<&'static str, Summary>;

/// Seconds → the unit a metric is reported in.
#[derive(Clone, Copy)]
enum Unit {
    Ns,
    Us,
    Ms,
}

impl Unit {
    fn of_secs(self, s: f64) -> f64 {
        match self {
            Unit::Ns => s * 1e9,
            Unit::Us => s * 1e6,
            Unit::Ms => s * 1e3,
        }
    }
}

struct Probe<'r> {
    rec: &'r RingRecorder,
    max_samples: usize,
    min_samples: usize,
    budget: Duration,
    out: Measured,
}

impl Probe<'_> {
    /// Record `values` (already in the metric's unit) under `name`;
    /// returns their median.
    fn put(&mut self, name: &'static str, values: &[f64]) -> f64 {
        let summary = Summary::of(values);
        let median = summary.median;
        assert!(self.out.insert(name, summary).is_none(), "probe {name} recorded twice");
        median
    }

    /// Record per-call seconds under `name` in `unit`.
    fn put_secs(&mut self, name: &'static str, unit: Unit, secs: &[f64]) {
        let scaled: Vec<f64> = secs.iter().map(|s| unit.of_secs(*s)).collect();
        self.put(name, &scaled);
    }

    /// Keep sampling? Up to 200 samples or the time budget, and at
    /// least three samples whatever they cost.
    fn wants_more(&self, have: usize, started: Instant) -> bool {
        have < self.max_samples && (have < self.min_samples || started.elapsed() < self.budget)
    }

    /// Time `f` per call, as one span named `span`; seconds per call.
    fn sample(&self, span: &'static str, mut f: impl FnMut()) -> Vec<f64> {
        let _span = self.rec.span(Lane::Driver, "probe", span, Vec::new());
        let started = Instant::now();
        let mut secs = Vec::new();
        while self.wants_more(secs.len(), started) {
            let t0 = Instant::now();
            f();
            secs.push(t0.elapsed().as_secs_f64());
        }
        secs
    }

    /// Sample `f` and record it under `name`; returns the median in
    /// seconds for derived metrics.
    fn time(&mut self, name: &'static str, unit: Unit, f: impl FnMut()) -> f64 {
        let secs = self.sample(name, f);
        self.put_secs(name, unit, &secs);
        median(&secs)
    }

    /// Enough rounds of a `per_cycle`-sample pass to reach the target.
    fn cycles(&self, per_cycle: usize) -> usize {
        self.max_samples.div_ceil(per_cycle.max(1))
    }
}

/// The synthetic inputs every probe group shares.
struct Inputs {
    model: PeForecastModel,
    mean: Vec<f64>,
    prior: esse::core::subspace::ErrorSubspace,
    /// Perturbed states standing in for the N member forecasts.
    members: Vec<Vec<f64>>,
    seed: u64,
}

impl Inputs {
    fn generate(shapes: &Shapes) -> Inputs {
        let ScenarioInputs { model, mean, prior } =
            ScenarioInputs::generate(&shapes.sc, shapes.seed);
        let noisy =
            PerturbConfig { white_noise: 0.01, base_seed: shapes.seed, ..PerturbConfig::default() };
        let gen = PerturbationGenerator::new(&prior, noisy);
        let members = (0..shapes.members.max(4)).map(|j| gen.perturb(&mean, j)).collect();
        Inputs { model, mean, prior, members, seed: shapes.seed }
    }
}

/// A fresh scratch directory for one probe group.
fn fresh_dir(path: PathBuf) -> PathBuf {
    workloads::fresh_dir(&path).expect("probe scratch directory");
    path
}

/// Run every probe. `dir` is scratch space on the filesystem the
/// workload itself runs on (the fsync-bound numbers are that
/// filesystem's).
pub fn run_all(shapes: &Shapes, dir: &Path, rec: &RingRecorder) -> Measured {
    let mut p = Probe {
        rec,
        max_samples: if shapes.quick { 20 } else { 200 },
        min_samples: if shapes.quick { 2 } else { 3 },
        budget: Duration::from_millis(if shapes.quick { 30 } else { 250 }),
        out: Measured::new(),
    };
    let inputs = Inputs::generate(shapes);
    let central = ocean(&mut p, &inputs, shapes);
    let posterior = core(&mut p, &inputs, &central);
    linalg(&mut p, &inputs, &central);
    file_io(&mut p, &inputs, &posterior, dir);
    pool(&mut p, &inputs, shapes, dir);
    journal(&mut p, &posterior, shapes, dir);
    net(&mut p, &inputs, shapes, dir);
    obs(&mut p);
    bins(&mut p, &inputs, shapes, dir);
    p.out
}

/// `esse-ocean`: one model step, one member forecast. Returns the
/// central forecast the later groups difference against.
fn ocean(p: &mut Probe, inp: &Inputs, shapes: &Shapes) -> Vec<f64> {
    let _g = p.rec.span(Lane::Driver, "layer", "esse-ocean", Vec::new());
    let pe = &inp.model.model;
    let mut state = OceanState::unpack(&pe.grid, &inp.mean);
    let mut rng = StdRng::seed_from_u64(inp.seed);
    let step_s = p.time("ocean.step_us", Unit::Us, || {
        pe.step(&mut state, Some(&mut rng)).expect("model step on the scenario state");
    });
    let (nx, ny, nz) = shapes.sc.dims;
    p.put("ocean.cell_updates_per_s", &[(nx * ny * nz) as f64 / step_s]);

    // Exactly what `pert` + `pemodel` compute for a member: a noise-free
    // draw from the prior, forecast under the member's own seed.
    let gen = PerturbationGenerator::new(
        &inp.prior,
        PerturbConfig { base_seed: inp.seed, ..PerturbConfig::default() },
    );
    let ics: Vec<Vec<f64>> = (0..8).map(|j| gen.perturb(&inp.mean, j)).collect();
    let horizon = shapes.sc.hours * 3600.0;
    let mut member = 0usize;
    p.time("ocean.forecast_ms", Unit::Ms, || {
        member = (member + 1) % ics.len();
        let x = inp.model.forecast(&ics[member], 0.0, horizon, Some(gen.forecast_seed(member)));
        std::hint::black_box(x.expect("member forecast"));
    });
    inp.model.forecast(&inp.mean, 0.0, horizon, None).expect("central forecast")
}

fn full_estimate(est: &mut dyn SubspaceEstimator) -> SubspaceUpdate {
    est.estimate().expect("subspace estimate").expect("two or more members")
}

/// `esse-core`: perturbation, validation, spread bookkeeping and the
/// subspace estimators. Returns the rank-k posterior at N used as the
/// payload of the file, journal and triple-buffer probes.
fn core(p: &mut Probe, inp: &Inputs, central: &[f64]) -> esse::core::subspace::ErrorSubspace {
    let _g = p.rec.span(Lane::Driver, "layer", "esse-core", Vec::new());
    let n_members = inp.members.len();
    let gen = PerturbationGenerator::new(
        &inp.prior,
        PerturbConfig { base_seed: inp.seed, ..PerturbConfig::default() },
    );
    let mut j = 0usize;
    p.time("core.perturb_us", Unit::Us, || {
        j += 1;
        std::hint::black_box(gen.perturb(&inp.mean, j));
    });

    let mut validator = ForecastValidator::for_scenario(
        &inp.model.model.grid,
        &[&inp.mean, central],
        &inp.prior,
        ValidatorConfig::default(),
    );
    for (id, x) in inp.members.iter().enumerate().take(n_members / 2) {
        validator.note_decided(id as u64, x);
    }
    let candidate = &inp.members[n_members - 1];
    assert!(
        validator.validate_member(n_members as u64, candidate).is_pass(),
        "the synthetic member must take the validator's full path"
    );
    p.time("core.validate_us", Unit::Us, || {
        std::hint::black_box(validator.validate_member(n_members as u64, candidate));
    });

    let mut add_secs = Vec::new();
    for _ in 0..p.cycles(n_members) {
        let mut acc = SpreadAccumulator::new(central.to_vec());
        for (id, x) in inp.members.iter().enumerate() {
            let t0 = Instant::now();
            acc.add_member(id, x);
            add_secs.push(t0.elapsed().as_secs_f64());
        }
    }
    p.put_secs("core.spread_add_us", Unit::Us, &add_secs);

    const REL_TOL: f64 = 1e-4;
    const MAX_RANK: usize = 64;
    let mut full = FullRecompute::new(central.to_vec(), REL_TOL, MAX_RANK);
    for (id, x) in inp.members.iter().enumerate() {
        full.add_member(id, x);
    }
    p.time("core.subspace_full_ms", Unit::Ms, || {
        std::hint::black_box(full_estimate(&mut full));
    });
    let posterior = full_estimate(&mut full).subspace;

    // Incremental lane, refresh: every estimate is a full rebuild at N.
    let mut refresher = IncrementalEstimator::new(
        central.to_vec(),
        REL_TOL,
        MAX_RANK,
        1,
        1.0,
        LinalgCtx::default(),
    );
    for (id, x) in inp.members.iter().enumerate() {
        refresher.add_member(id, x);
    }
    full_estimate(&mut refresher); // folds the backlog once, untimed
    p.time("core.subspace_inc_refresh_ms", Unit::Ms, || {
        let update = full_estimate(&mut refresher);
        assert_eq!(update.kind, UpdateKind::Refresh);
    });

    // Incremental lane, fold: prime on the first half (untimed), then
    // time 8-member folds through the second half.
    let span = p.rec.span(Lane::Driver, "probe", "core.subspace_inc_fold_ms", Vec::new());
    let started = Instant::now();
    let primed = (n_members / 2).max(2);
    let mut fold_secs = Vec::new();
    while primed < n_members && p.wants_more(fold_secs.len(), started) {
        let mut folder = IncrementalEstimator::new(
            central.to_vec(),
            REL_TOL,
            MAX_RANK,
            0,
            f64::INFINITY,
            LinalgCtx::default(),
        );
        for (id, x) in inp.members.iter().enumerate().take(primed) {
            folder.add_member(id, x);
        }
        full_estimate(&mut folder);
        for (chunk_no, chunk) in inp.members[primed..].chunks(8).enumerate() {
            for (off, x) in chunk.iter().enumerate() {
                folder.add_member(primed + chunk_no * 8 + off, x);
            }
            let t0 = Instant::now();
            let update = full_estimate(&mut folder);
            fold_secs.push(t0.elapsed().as_secs_f64());
            assert_eq!(update.kind, UpdateKind::Incremental);
        }
    }
    drop(span);
    p.put_secs("core.subspace_inc_fold_ms", Unit::Ms, &fold_secs);

    let earlier = posterior.truncate(posterior.rank().saturating_sub(1).max(1));
    p.time("core.similarity_us", Unit::Us, || {
        std::hint::black_box(similarity(&earlier, &posterior));
    });
    posterior
}

/// `esse-linalg` kernels on the n×N spread matrix.
fn linalg(p: &mut Probe, inp: &Inputs, central: &[f64]) {
    let _g = p.rec.span(Lane::Driver, "layer", "esse-linalg", Vec::new());
    let mut acc = SpreadAccumulator::new(central.to_vec());
    for (id, x) in inp.members.iter().enumerate() {
        acc.add_member(id, x);
    }
    let a = acc.raw_diffs().clone();
    let (n, big_n) = a.shape();
    let k = big_n.min(64);
    let ctx = LinalgCtx::default();
    let mut rng = StdRng::seed_from_u64(inp.seed ^ 0x11A1);

    let gram_s = p.time("linalg.gram_ms", Unit::Ms, || {
        std::hint::black_box(ctx.gram(&a));
    });
    p.put("linalg.gram_gflops", &[(n * big_n * big_n) as f64 / gram_s / 1e9]);
    let serial = LinalgCtx::serial();
    let serial_secs = p.sample("linalg.serial_ratio", || {
        std::hint::black_box(serial.gram(&a));
    });
    p.put("linalg.serial_ratio", &[median(&serial_secs) / gram_s]);

    let gram = ctx.gram(&a);
    p.time("linalg.symeig_ms", Unit::Ms, || {
        std::hint::black_box(SymEigen::compute(&gram).expect("eigen of a Gram matrix"));
    });
    let b = Matrix::from_fn(big_n, k, |_, _| rng.gen_range(-1.0..1.0));
    p.time("linalg.gemm_ms", Unit::Ms, || {
        std::hint::black_box(ctx.gemm(&a, &b).expect("conforming gemm"));
    });
    let tall = Matrix::from_fn(n, k + 8, |_, _| rng.gen_range(-1.0..1.0));
    p.time("linalg.qr_ms", Unit::Ms, || {
        std::hint::black_box(ctx.qr(&tall).expect("qr of a tall matrix"));
    });
    p.time("linalg.svd_ms", Unit::Ms, || {
        std::hint::black_box(Svd::compute(&a).expect("svd of the spread matrix"));
    });
}

/// `esse::fileio`: the vector and subspace files every member and every
/// checkpoint goes through.
fn file_io(
    p: &mut Probe,
    inp: &Inputs,
    posterior: &esse::core::subspace::ErrorSubspace,
    dir: &Path,
) {
    let _g = p.rec.span(Lane::Driver, "layer", "esse-fileio", Vec::new());
    let dir = fresh_dir(dir.join("fileio"));
    let vec_path = dir.join("probe.vec");
    p.time("fileio.write_vector_us", Unit::Us, || {
        fileio::write_vector(&vec_path, &inp.members[0]).expect("write vector");
    });
    p.time("fileio.read_vector_us", Unit::Us, || {
        std::hint::black_box(fileio::read_vector(&vec_path).expect("read vector"));
    });
    let bytes = std::fs::metadata(&vec_path).expect("stat vector file").len();
    p.put("fileio.vector_bytes", &[bytes as f64]);
    let sub_path = dir.join("probe.sub");
    p.time("fileio.write_subspace_ms", Unit::Ms, || {
        fileio::write_subspace(&sub_path, posterior).expect("write subspace");
    });
    p.time("fileio.read_subspace_ms", Unit::Ms, || {
        std::hint::black_box(fileio::read_subspace(&sub_path).expect("read subspace"));
    });
}

fn manifest(shapes: &Shapes) -> PoolManifest {
    PoolManifest {
        domain: shapes.sc.domain(),
        hours: shapes.sc.hours,
        white_noise: 0.0,
        base_seed: shapes.seed,
        lease_ms: 60_000,
        config_hash: 0x9E4F,
        trace_run_id: 0,
    }
}

fn task(member: u64) -> TaskSpec {
    TaskSpec { member, epoch: 1, seed: member ^ 0x5EED, parent_span: 0 }
}

fn result_of(spec: &TaskSpec, fc_crc: u32) -> ResultRecord {
    ResultRecord {
        member: spec.member,
        epoch: spec.epoch,
        code: 0,
        pid: std::process::id(),
        fc_crc,
        reason: 0,
    }
}

/// A pool workdir with the staged inputs a worker (or the wire
/// handshake) expects.
fn staged_pool(dir: PathBuf, inp: &Inputs, shapes: &Shapes) -> (PathBuf, TaskPool) {
    let dir = fresh_dir(dir);
    fileio::write_vector(dir.join(files::MEAN), &inp.mean).expect("stage mean");
    fileio::write_subspace(dir.join(files::PRIOR), &inp.prior).expect("stage prior");
    let pool = TaskPool::create(&dir, &manifest(shapes)).expect("create pool");
    (dir, pool)
}

/// One seed → claim → renew → publish → release pass over `members`
/// tasks through `transport`; appends per-op seconds.
fn pool_cycle(
    pool: &TaskPool,
    transport: &dyn PoolTransport,
    members: usize,
    first_member: u64,
    payload: Option<(&[u8], u32)>,
    secs: &mut [Vec<f64>; 4],
) {
    let [seed_s, claim_s, renew_s, publish_s] = secs;
    for m in 0..members as u64 {
        let t0 = Instant::now();
        pool.seed(&task(first_member + m)).expect("seed task");
        seed_s.push(t0.elapsed().as_secs_f64());
    }
    for _ in 0..members {
        let t0 = Instant::now();
        let outcome = transport.claim_next().expect("claim");
        claim_s.push(t0.elapsed().as_secs_f64());
        let ClaimOutcome::Task(spec) = outcome else { panic!("seeded pool ran dry") };
        let hb = Heartbeat { pid: std::process::id(), counter: 1 };
        let t0 = Instant::now();
        transport.renew_lease(&spec, &hb).expect("renew");
        renew_s.push(t0.elapsed().as_secs_f64());
        let t0 = Instant::now();
        transport
            .publish(&result_of(&spec, payload.map_or(0, |(_, crc)| crc)), payload.map(|(b, _)| b))
            .expect("publish");
        publish_s.push(t0.elapsed().as_secs_f64());
        transport.release(&spec).expect("release");
        pool.consume_result(&result_of(&spec, 0)).expect("consume result");
    }
}

/// `esse-mtc::pool` through `DiskTransport`, a stage's worth of tasks
/// at a time (claim cost grows with the pending directory).
fn pool(p: &mut Probe, inp: &Inputs, shapes: &Shapes, dir: &Path) {
    let _g = p.rec.span(Lane::Driver, "layer", "esse-mtc.pool", Vec::new());
    let (_workdir, pool) = staged_pool(dir.join("pool-disk"), inp, shapes);
    let transport = DiskTransport::new(pool.clone(), manifest(shapes), None);
    let mut secs: [Vec<f64>; 4] = Default::default();
    let stage = shapes.members.max(2);
    for cycle in 0..p.cycles(stage) {
        pool_cycle(&pool, &transport, stage, (cycle * stage) as u64, None, &mut secs);
    }
    let [seed_s, claim_s, renew_s, publish_s] = &secs;
    p.put_secs("mtc.pool.seed_us", Unit::Us, seed_s);
    p.put_secs("mtc.pool.claim_us", Unit::Us, claim_s);
    p.put_secs("mtc.pool.renew_us", Unit::Us, renew_s);
    p.put_secs("mtc.pool.publish_us", Unit::Us, publish_s);

    // The coordinator's view mid-stage: 64 pending, 2 claimed, 8 results.
    let base = 900_000u64; // record names carry six member digits
    for m in 0..74 {
        pool.seed(&task(base + m)).expect("seed scan fixture");
    }
    for m in 0..10 {
        let name = task(base + m).file_name();
        let spec = pool.try_claim(&name).expect("claim scan fixture").expect("unclaimed");
        if m < 8 {
            pool.publish_result(&result_of(&spec, 0)).expect("publish scan fixture");
            pool.release_claim(&spec).expect("release scan fixture");
        } else {
            pool.heartbeat(&spec, &Heartbeat { pid: 1, counter: 1 }).expect("heartbeat fixture");
        }
    }
    let scan = pool.scan().expect("scan");
    assert_eq!((scan.pending.len(), scan.claims.len(), scan.results.len()), (64, 2, 8));
    p.time("mtc.pool.scan_us", Unit::Us, || {
        std::hint::black_box(pool.scan().expect("scan"));
    });
}

/// `esse-mtc::journal` and the on-disk triple buffer.
fn journal(
    p: &mut Probe,
    posterior: &esse::core::subspace::ErrorSubspace,
    shapes: &Shapes,
    dir: &Path,
) {
    let _g = p.rec.span(Lane::Driver, "layer", "esse-mtc.journal", Vec::new());
    let dir = fresh_dir(dir.join("journal"));
    let path = dir.join("probe.journal");
    let journal = Journal::create(&path).expect("create journal");
    let mut member = 0u64;
    p.time("mtc.journal.append_us", Unit::Us, || {
        member += 1;
        journal.append(&JournalRecord::MemberCompleted { member, attempts: 1 }).expect("append");
    });
    // Replay a journal as long as the run's own.
    let records = if shapes.journal_records > 0 {
        shapes.journal_records
    } else {
        2 * shapes.members as u64 + 8
    };
    while member < records {
        member += 1;
        journal.append(&JournalRecord::MemberCompleted { member, attempts: 1 }).expect("append");
    }
    p.time("mtc.journal.replay_ms", Unit::Ms, || {
        std::hint::black_box(Journal::replay(&path).expect("replay"));
    });
    p.time("mtc.journal.encode_subspace_ms", Unit::Ms, || {
        std::hint::black_box(encode_subspace_blob(posterior));
    });
    let blob = encode_subspace_blob(posterior);
    let buffer = DiskTripleBuffer::create(dir.join("cov")).expect("create triple buffer");
    let mut version = 0u64;
    p.time("mtc.triple_buffer.publish_ms", Unit::Ms, || {
        version += 1;
        buffer.publish(&blob, version).expect("publish covariance");
    });
}

/// `esse-net`: codec throughput and the transport ops against a
/// loopback `NetServer`, payload = one forecast file at n.
fn net(p: &mut Probe, inp: &Inputs, shapes: &Shapes, dir: &Path) {
    let _g = p.rec.span(Lane::Driver, "layer", "esse-net", Vec::new());
    let body: Vec<u8> = (0..256 * 1024).map(|i| (i * 131 % 251) as u8).collect();
    let mb_per_s =
        |secs: Vec<f64>| -> Vec<f64> { secs.iter().map(|s| body.len() as f64 / 1e6 / s).collect() };
    let encode = p.sample("net.frame_encode_mb_s", || {
        std::hint::black_box(frame::encode(&body));
    });
    p.put("net.frame_encode_mb_s", &mb_per_s(encode));
    let framed = frame::encode(&body);
    let decode = p.sample("net.frame_decode_mb_s", || {
        std::hint::black_box(frame::decode(&framed).expect("decode own frame"));
    });
    p.put("net.frame_decode_mb_s", &mb_per_s(decode));
    let spec = task(7);
    let msgs = [
        Message::Task { spec },
        Message::Result { rec: result_of(&spec, 0xC0FFEE), payload_len: inp.mean.len() as u64 * 8 },
    ];
    p.time("net.msg_codec_us", Unit::Us, || {
        for m in &msgs {
            std::hint::black_box(Message::decode(&m.encode()).expect("decode own message"));
        }
    });

    let (workdir, pool) = staged_pool(dir.join("pool-tcp"), inp, shapes);
    let mut server = NetServer::start(ServerConfig {
        pool: pool.clone(),
        manifest: manifest(shapes),
        workdir: workdir.clone(),
        listen: "127.0.0.1:0".into(),
        generation: 1,
        metrics: NetMetrics::detached(),
        recorder: Arc::new(NULL),
    })
    .expect("start loopback server");
    let addr = server.local_addr().to_string();
    let scratch = fresh_dir(dir.join("scratch-tcp"));
    let mut worker = 0u64;
    p.time("net.stage_ms", Unit::Ms, || {
        worker += 1;
        let t = TcpTransport::connect(TcpConfig::new(addr.clone(), worker)).expect("connect");
        t.stage_inputs(&scratch).expect("stage inputs");
    });

    let payload = fileio::vector_to_bytes(&inp.members[0]);
    let crc = esse::core::durable::crc32(&payload);
    let transport = TcpTransport::connect(TcpConfig::new(addr, 0)).expect("connect");
    let mut secs: [Vec<f64>; 4] = Default::default();
    let stage = shapes.members.max(2);
    // Wire ops carry a forecast each; a quarter of the disk sample
    // target keeps large states inside the time budget.
    for cycle in 0..p.cycles(stage * 4) {
        let first = (cycle * stage) as u64;
        pool_cycle(&pool, &transport, stage, first, Some((&payload, crc)), &mut secs);
    }
    drop(transport);
    server.stop();
    let [_, claim_s, _, publish_s] = &secs;
    p.put_secs("net.claim_us", Unit::Us, claim_s);
    p.put_secs("net.publish_us", Unit::Us, publish_s);
}

/// `esse-obs`: cost of one begin/end pair on a ring recorder.
fn obs(p: &mut Probe) {
    let _g = p.rec.span(Lane::Driver, "layer", "esse-obs", Vec::new());
    let ring = RingRecorder::new();
    p.time("obs.span_ns", Unit::Ns, || {
        let now = ring.now_ns();
        ring.begin_at(now, Lane::Worker(0), "probe", "span", Vec::new());
        ring.end_at(ring.now_ns(), Lane::Worker(0), "probe", "span");
    });
}

/// The `pert` and `pemodel` singletons, spawn → exit, and what they
/// cost beyond the library calls and file traffic inside them.
fn bins(p: &mut Probe, inp: &Inputs, shapes: &Shapes, dir: &Path) {
    let _g = p.rec.span(Lane::Driver, "layer", "bins", Vec::new());
    let (workdir, _pool) = staged_pool(dir.join("bins"), inp, shapes);
    let run = |cmd: &mut Command| {
        let status = cmd.stdin(Stdio::null()).stdout(Stdio::null()).status().expect("spawn");
        assert!(status.success(), "{:?} failed: {status}", cmd.get_program());
    };
    let mut member = 0usize;
    let pert_s = p.time("bin.pert.run_ms", Unit::Ms, || {
        member += 1;
        run(Command::new(sibling("pert"))
            .arg("--workdir")
            .arg(&workdir)
            .args(["--member", &member.to_string()])
            .args(["--white-noise", "0", "--base-seed", &inp.seed.to_string()]));
    });
    let mut forecast = 0usize;
    let pemodel_s = p.time("bin.pemodel.run_ms", Unit::Ms, || {
        forecast = forecast % member + 1;
        run(Command::new(sibling("pemodel"))
            .arg("--workdir")
            .arg(&workdir)
            .args(["--domain", &shapes.sc.domain()])
            .args(["--hours", &shapes.sc.hours.to_string()])
            .args(["--member", &forecast.to_string(), "--seed", &forecast.to_string()]));
    });
    let ms = |name: &str, unit_per_ms: f64| p.out[name].median / unit_per_ms;
    let inside = ms("core.perturb_us", 1e3)
        + ms("ocean.forecast_ms", 1.0)
        + 2.0 * ms("fileio.read_vector_us", 1e3)
        + 2.0 * ms("fileio.write_vector_us", 1e3);
    p.put("bin.member_tax_ms", &[(pert_s + pemodel_s) * 1e3 - inside]);
}
