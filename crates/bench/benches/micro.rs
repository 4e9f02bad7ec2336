//! Hot-path micro-benchmarks: the primitives every experiment is built from.
//!
//! Several benchmarks come in pairs: the live (kernel-backed) path under its
//! original name, and a `_scalar_ref`/`_naive` twin that re-implements the
//! pre-kernel scalar code. The pairs let `bench_report` compute speedups into
//! `BENCH_kernels.json` — see `scripts/bench_kernels.sh`.

use cia_core::{CiaConfig, FlCia, ItemSetEvaluator};
use cia_data::presets::{Preset, Scale};
use cia_data::{gaussian, jaccard_index, GroundTruth, LeaveOneOut, UserId};
use cia_defenses::{DpConfig, DpMechanism, UpdateTransform};
use cia_federated::{FedAvg, FedAvgConfig, NullObserver};
use cia_gossip::{GossipConfig, GossipSim, NullGossipObserver};
use cia_models::params::{clip_l2, ema, sigmoid};
use cia_models::{
    kernel, GmfHyper, GmfSpec, Mlp, MlpHyper, MlpSpec, RelevanceScorer, SharingPolicy,
};
use cia_scenarios::{DynamicsSpec, FlDynamics, ParticipantDynamics};
use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

const ITEMS: u32 = 1682; // MovieLens catalog size
const DIM: usize = 16;

fn bench_kernels(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(11);
    let a: Vec<f32> = (0..1024).map(|_| rng.gen::<f32>() - 0.5).collect();
    let b: Vec<f32> = (0..1024).map(|_| rng.gen::<f32>() - 0.5).collect();
    c.bench_function("kernel_dot_1024", |bch| {
        bch.iter(|| std::hint::black_box(kernel::dot(&a, &b)));
    });
    c.bench_function("kernel_dot_1024_scalar_ref", |bch| {
        bch.iter(|| {
            let mut z = 0.0f32;
            for i in 0..a.len() {
                z += a[i] * b[i];
            }
            std::hint::black_box(z)
        });
    });

    // The polynomial sigmoid (fast_exp-backed) against the libm-based
    // two-branch form it replaced — the per-step transcendental cost that
    // dominated paper-scale training rounds.
    let zs: Vec<f32> = (0..1024).map(|_| (rng.gen::<f32>() - 0.5) * 16.0).collect();
    let mut buf = zs.clone();
    c.bench_function("sigmoid_batch_1024", |bch| {
        bch.iter(|| {
            buf.copy_from_slice(&zs);
            kernel::sigmoid_in_place(std::hint::black_box(&mut buf));
        });
    });
    c.bench_function("sigmoid_batch_1024_scalar_ref", |bch| {
        bch.iter(|| {
            buf.copy_from_slice(&zs);
            for x in std::hint::black_box(&mut buf).iter_mut() {
                *x = if *x >= 0.0 {
                    1.0 / (1.0 + (-*x).exp())
                } else {
                    let e = x.exp();
                    e / (1.0 + e)
                };
            }
        });
    });

    let w: Vec<f32> = (0..256 * 256).map(|_| rng.gen::<f32>() - 0.5).collect();
    let x: Vec<f32> = (0..256).map(|_| rng.gen::<f32>() - 0.5).collect();
    let bias: Vec<f32> = (0..256).map(|_| rng.gen::<f32>() - 0.5).collect();
    let mut out = vec![0.0f32; 256];
    c.bench_function("kernel_gemv_relu_256x256", |bch| {
        bch.iter(|| kernel::gemv(std::hint::black_box(&mut out), &w, &x, Some(&bias), true));
    });
}

fn bench_scoring(c: &mut Criterion) {
    let spec = GmfSpec::new(ITEMS, DIM, GmfHyper::default());
    let mut rng = StdRng::seed_from_u64(1);
    let agg = spec.init_agg(&mut rng);
    let emb = vec![0.05f32; DIM];
    let mut out = vec![0.0f32; ITEMS as usize];
    c.bench_function("gmf_score_full_catalog_1682x16", |b| {
        b.iter(|| spec.score_item_range(Some(&emb), &agg, 0, std::hint::black_box(&mut out)));
    });
    // The pre-kernel scalar path: heap-allocate w = p_u ⊙ h, then a serial
    // dependency-chained dot per item. The dimension is opaque to the
    // optimizer (black_box), as it was in the old library code where `d` was
    // a runtime field.
    c.bench_function("gmf_score_full_catalog_1682x16_scalar_ref", |b| {
        b.iter(|| {
            let d = std::hint::black_box(DIM);
            let h = &agg[ITEMS as usize * d..];
            let w: Vec<f32> = emb.iter().zip(h).map(|(u, h)| u * h).collect();
            for (j, o) in out.iter_mut().enumerate() {
                let q = &agg[j * d..(j + 1) * d];
                let mut z = 0.0f32;
                for k in 0..d {
                    z += w[k] * q[k];
                }
                *o = sigmoid(z);
            }
            std::hint::black_box(&mut out);
        });
    });
    let target: Vec<u32> = (0..100).collect();
    c.bench_function("gmf_mean_relevance_100_items", |b| {
        b.iter(|| std::hint::black_box(spec.mean_relevance(Some(&emb), &agg, &target)));
    });
    // The Share-less attack's per-(model, target) pass at paper shape: d = 8,
    // the full catalog, and ~85 scattered target items (a MovieLens user's
    // mean train-set size), sorted and deduplicated as evaluator targets are.
    const PAPER_DIM: usize = 8;
    let spec8 = GmfSpec::new(ITEMS, PAPER_DIM, GmfHyper::default());
    let agg8 = spec8.init_agg(&mut rng);
    let emb8: Vec<f32> = (0..PAPER_DIM).map(|_| rng.gen_range(-0.1f32..0.1)).collect();
    let mut target8: Vec<u32> = (0..86).map(|_| rng.gen_range(0..ITEMS)).collect();
    target8.sort_unstable();
    target8.dedup();
    c.bench_function("gmf_mean_relevance_paper_d8", |b| {
        b.iter(|| std::hint::black_box(spec8.mean_relevance(Some(&emb8), &agg8, &target8)));
    });
    // The previous library body: `w = p_u ⊙ h` hoisted on the stack, then a
    // runtime-length `kernel::dot` per target item, with `d` opaque to the
    // optimizer as the runtime field was.
    c.bench_function("gmf_mean_relevance_paper_d8_scalar_ref", |b| {
        b.iter(|| {
            let d = std::hint::black_box(PAPER_DIM);
            let h = &agg8[ITEMS as usize * d..];
            let mut buf = [0.0f32; 64];
            for ((w, u), hh) in buf.iter_mut().zip(&emb8).zip(h) {
                *w = u * hh;
            }
            let w = &buf[..d];
            let mut acc = 0.0f32;
            for &j in &target8 {
                acc += kernel::dot(w, &agg8[j as usize * d..(j as usize + 1) * d]);
            }
            std::hint::black_box(acc / target8.len() as f32)
        });
    });
}

fn bench_momentum_and_dp(c: &mut Criterion) {
    let spec = GmfSpec::new(ITEMS, DIM, GmfHyper::default());
    let mut rng = StdRng::seed_from_u64(2);
    let theta = spec.init_agg(&mut rng);
    let mut v = theta.clone();
    c.bench_function("momentum_ema_27k_params", |b| {
        b.iter(|| ema(std::hint::black_box(&mut v), 0.99, &theta));
    });
    let mut v2 = theta.clone();
    c.bench_function("momentum_ema_27k_params_scalar_ref", |b| {
        b.iter(|| {
            let v = std::hint::black_box(&mut v2);
            for (vi, ti) in v.iter_mut().zip(&theta) {
                *vi = 0.99 * *vi + (1.0 - 0.99) * ti;
            }
        });
    });

    let dp = DpMechanism::new(DpConfig { clip: 2.0, noise_multiplier: 1.0 });
    c.bench_function("dp_clip_noise_27k_params", |b| {
        b.iter(|| {
            let mut upd = theta.clone();
            dp.transform(&mut upd, &mut rng);
            std::hint::black_box(upd)
        });
    });
    // The pre-batch path: clip, then one libm Box–Muller draw per coordinate.
    c.bench_function("dp_clip_noise_27k_params_scalar_ref", |b| {
        b.iter(|| {
            let mut upd = theta.clone();
            clip_l2(&mut upd, 2.0);
            for v in &mut upd {
                *v += gaussian(&mut rng) * 2.0;
            }
            std::hint::black_box(upd)
        });
    });
    let mut upd = theta.clone();
    c.bench_function("clip_l2_27k_params", |b| {
        b.iter(|| clip_l2(std::hint::black_box(&mut upd), 2.0));
    });
}

fn bench_mlp_train(c: &mut Criterion) {
    // The MNIST-shaped classifier of §VIII-E: 784-100-10, one batch of 16.
    let spec = MlpSpec::new(vec![784, 100, 10]);
    let hyper = MlpHyper { lr: 0.05, weight_decay: 1e-5, batch_size: 16 };
    let mut rng = StdRng::seed_from_u64(4);
    let batch: Vec<Vec<f32>> =
        (0..16).map(|_| (0..784).map(|_| rng.gen::<f32>()).collect()).collect();
    let xs: Vec<&[f32]> = batch.iter().map(std::vec::Vec::as_slice).collect();
    let labels: Vec<usize> = (0..16).map(|i| i % 10).collect();

    let mut mlp = Mlp::new(spec.clone(), hyper, 7);
    c.bench_function("mlp_train_batch_784x100x10_b16", |b| {
        b.iter(|| std::hint::black_box(mlp.train_classification(&xs, &labels)));
    });

    // The pre-kernel scalar path: per-sample Vec allocations and serial
    // dependency-chained loops, as `train_batch` was written before the
    // kernel layer.
    let mut params = Mlp::new(spec.clone(), hyper, 7).params().to_vec();
    c.bench_function("mlp_train_batch_784x100x10_b16_scalar_ref", |b| {
        b.iter(|| {
            std::hint::black_box(scalar_ref_train_batch(
                &spec,
                &mut params,
                hyper.lr,
                hyper.weight_decay,
                &xs,
                &labels,
            ))
        });
    });

    let mut scratch = cia_models::MlpScratch::default();
    let mlp_fwd = Mlp::new(spec.clone(), hyper, 7);
    c.bench_function("mlp_forward_784x100x10", |b| {
        b.iter(|| {
            std::hint::black_box(spec.forward_into(mlp_fwd.params(), &batch[0], &mut scratch));
        });
    });
}

/// The seed's scalar `train_batch` (softmax head), kept verbatim as the
/// benchmark baseline for the kernel rewrite.
fn scalar_ref_train_batch(
    spec: &MlpSpec,
    params: &mut [f32],
    lr: f32,
    weight_decay: f32,
    xs: &[&[f32]],
    labels: &[usize],
) -> f32 {
    let layers = spec.layers();
    let n_layers = layers.len() - 1;
    let mut grads = vec![0.0f32; spec.param_len()];
    let mut total_loss = 0.0f32;
    for (bi, x) in xs.iter().enumerate() {
        let mut acts: Vec<Vec<f32>> = Vec::with_capacity(n_layers + 1);
        acts.push(x.to_vec());
        let mut off = 0;
        for (li, w) in layers.windows(2).enumerate() {
            let (n_in, n_out) = (w[0], w[1]);
            let weights = &params[off..off + n_in * n_out];
            let biases = &params[off + n_in * n_out..off + n_in * n_out + n_out];
            let prev = &acts[li];
            let mut next = vec![0.0f32; n_out];
            for o in 0..n_out {
                let row = &weights[o * n_in..(o + 1) * n_in];
                let mut z = biases[o];
                for i in 0..n_in {
                    z += row[i] * prev[i];
                }
                next[o] = if li + 1 < n_layers { z.max(0.0) } else { z };
            }
            acts.push(next);
            off += n_in * n_out + n_out;
        }
        let logp = MlpSpec::log_softmax(acts.last().expect("output layer"));
        total_loss += -logp[labels[bi]];
        let mut delta: Vec<f32> = logp.iter().map(|&lp| lp.exp()).collect();
        delta[labels[bi]] -= 1.0;

        let mut offs: Vec<usize> = Vec::with_capacity(n_layers);
        let mut o = 0;
        for w in layers.windows(2) {
            offs.push(o);
            o += w[0] * w[1] + w[1];
        }
        for li in (0..n_layers).rev() {
            let (n_in, n_out) = (layers[li], layers[li + 1]);
            let off = offs[li];
            let prev = &acts[li];
            for o in 0..n_out {
                let g = delta[o];
                let wrow = &mut grads[off + o * n_in..off + (o + 1) * n_in];
                for i in 0..n_in {
                    wrow[i] += g * prev[i];
                }
                grads[off + n_in * n_out + o] += g;
            }
            if li > 0 {
                let weights = &params[off..off + n_in * n_out];
                let mut prev_delta = vec![0.0f32; n_in];
                for o in 0..n_out {
                    let g = delta[o];
                    let row = &weights[o * n_in..(o + 1) * n_in];
                    for i in 0..n_in {
                        prev_delta[i] += row[i] * g;
                    }
                }
                for i in 0..n_in {
                    if acts[li][i] <= 0.0 {
                        prev_delta[i] = 0.0;
                    }
                }
                delta = prev_delta;
            }
        }
    }
    let scale = lr / xs.len() as f32;
    for (p, g) in params.iter_mut().zip(&grads) {
        *p -= scale * g + lr * weight_decay * *p;
    }
    total_loss / xs.len() as f32
}

fn bench_protocol_rounds(c: &mut Criterion) {
    let data = Preset::MovieLens.generate(Scale::Smoke, 3);
    let split = LeaveOneOut::new(&data, 20, 3).unwrap();
    let spec = GmfSpec::new(data.num_items(), 8, GmfHyper::default());
    let clients = || -> Vec<_> {
        split
            .train_sets()
            .iter()
            .enumerate()
            .map(|(u, items)| {
                spec.build_client(
                    UserId::from_index(u),
                    items.clone(),
                    SharingPolicy::Full,
                    u as u64,
                )
            })
            .collect()
    };
    c.bench_function("fedavg_round_48_clients", |b| {
        let mut sim =
            FedAvg::new(clients(), FedAvgConfig { rounds: u64::MAX, ..Default::default() });
        b.iter(|| sim.step(&mut NullObserver));
    });
    c.bench_function("gossip_round_48_nodes", |b| {
        let mut sim =
            GossipSim::new(clients(), GossipConfig { rounds: u64::MAX, ..Default::default() });
        b.iter(|| sim.step(&mut NullGossipObserver));
    });
    // Small-scale (200×400) trend rows for the paper-scale round cost:
    // the same hot path (fused absorb/train/sparse-aggregate, pooled gossip
    // snapshots) at ~1% of the work, so the default bench run — and the
    // `cargo bench -- --test` smoke gate — tracks round-cost drift without
    // paying for 943-client rounds. The paper rows stay gated behind
    // `--scale paper` (see `bench_paper_scale`).
    let small = Preset::MovieLens.generate(Scale::Small, 3);
    let small_split = LeaveOneOut::new(&small, 40, 3).unwrap();
    let small_spec = GmfSpec::new(small.num_items(), 8, GmfHyper::default());
    let small_clients = || -> Vec<_> {
        small_split
            .train_sets()
            .iter()
            .enumerate()
            .map(|(u, items)| {
                small_spec.build_client(
                    UserId::from_index(u),
                    items.clone(),
                    SharingPolicy::Full,
                    u as u64,
                )
            })
            .collect()
    };
    c.bench_function("fedavg_round_small_200x400", |b| {
        let mut sim = FedAvg::new(
            small_clients(),
            FedAvgConfig { rounds: u64::MAX, local_epochs: 2, ..Default::default() },
        );
        b.iter(|| sim.step(&mut NullObserver));
    });
    c.bench_function("gossip_round_small_200x400", |b| {
        let mut sim = GossipSim::new(
            small_clients(),
            GossipConfig { rounds: u64::MAX, ..Default::default() },
        );
        b.iter(|| sim.step(&mut NullGossipObserver));
    });
    // The same FedAvg round with the scenario engine's churn/straggler
    // dynamics threaded through the observer seam — measures what the
    // availability layer costs on top of a bare round.
    c.bench_function("fedavg_round_48_clients_churn_dynamics", |b| {
        let dyn_spec = DynamicsSpec {
            leave_prob: 0.05,
            join_prob: 0.2,
            initial_online: 0.9,
            straggler_fraction: 0.1,
            straggler_mean_delay: 2.0,
            ..DynamicsSpec::default()
        };
        let mut dynamics = ParticipantDynamics::new(&dyn_spec, 48, 1);
        let mut inner = NullObserver;
        let mut sim =
            FedAvg::new(clients(), FedAvgConfig { rounds: u64::MAX, ..Default::default() });
        b.iter(|| {
            let mut obs = FlDynamics { inner: &mut inner, dynamics: &mut dynamics };
            sim.step(&mut obs)
        });
    });
}

fn bench_attack_eval(c: &mut Criterion) {
    let data = Preset::MovieLens.generate(Scale::Smoke, 5);
    let split = LeaveOneOut::new(&data, 20, 5).unwrap();
    let users = data.num_users();
    let k = 5;
    let gt = GroundTruth::from_train_sets(split.train_sets(), k);
    let spec = GmfSpec::new(data.num_items(), 8, GmfHyper::default());
    let clients: Vec<_> = split
        .train_sets()
        .iter()
        .enumerate()
        .map(|(u, items)| {
            spec.build_client(UserId::from_index(u), items.clone(), SharingPolicy::Full, u as u64)
        })
        .collect();
    c.bench_function("cia_fl_round_with_eval_48_users", |b| {
        let evaluator = ItemSetEvaluator::new(spec.clone(), split.train_sets().to_vec(), false);
        let truths: Vec<_> =
            (0..users).map(|u| gt.community_of(UserId::from_index(u)).to_vec()).collect();
        let owners: Vec<_> = (0..users).map(|u| Some(UserId::from_index(u))).collect();
        let mut attack = FlCia::new(
            CiaConfig { k, beta: 0.99, eval_every: 1, seed: 0 },
            evaluator,
            users,
            truths,
            owners,
        );
        let mut sim =
            FedAvg::new(clients.clone(), FedAvgConfig { rounds: u64::MAX, ..Default::default() });
        b.iter(|| sim.step(&mut attack));
    });
}

fn bench_ground_truth(c: &mut Criterion) {
    let data = Preset::MovieLens.generate(Scale::Smoke, 7);
    let split = LeaveOneOut::new(&data, 20, 7).unwrap();
    c.bench_function("ground_truth_jaccard_topk_48_users", |b| {
        b.iter(|| std::hint::black_box(GroundTruth::from_train_sets(split.train_sets(), 5)));
    });
    c.bench_function("ground_truth_jaccard_topk_48_users_naive", |b| {
        b.iter(|| std::hint::black_box(GroundTruth::from_train_sets_naive(split.train_sets(), 5)));
    });
    let a = &split.train_sets()[0];
    let bset = &split.train_sets()[1];
    c.bench_function("jaccard_index_pair", |b| {
        b.iter(|| std::hint::black_box(jaccard_index(a, bset)));
    });
}

fn bench_paper_scale(c: &mut Criterion) {
    // Paper-scale (943 users × 1682 items, Table I) end-to-end round cost.
    // Gated behind CIA_BENCH_PAPER_SCALE — `scripts/bench_kernels.sh
    // --scale paper` sets it — so the `cargo bench -- --test` smoke gate
    // (and CI) never pays for 943-client rounds.
    if std::env::var_os("CIA_BENCH_PAPER_SCALE").is_none() {
        return;
    }
    let data = Preset::MovieLens.generate(Scale::Paper, 3);
    let split = LeaveOneOut::new(&data, 100, 3).unwrap();
    let spec = GmfSpec::new(data.num_items(), 8, GmfHyper::default());
    let clients = || -> Vec<_> {
        split
            .train_sets()
            .iter()
            .enumerate()
            .map(|(u, items)| {
                spec.build_client(
                    UserId::from_index(u),
                    items.clone(),
                    SharingPolicy::Full,
                    u as u64,
                )
            })
            .collect()
    };
    // The paper's FL setting: 2 local epochs per round (ScaleParams::Paper).
    let t = thread_suffix();
    c.bench_function(&format!("fedavg_round_paper_943x1682{t}"), |b| {
        let mut sim = FedAvg::new(
            clients(),
            FedAvgConfig { rounds: u64::MAX, local_epochs: 2, ..Default::default() },
        );
        b.iter(|| sim.step(&mut NullObserver));
    });
    // Phase-annotated twin of the row above: a few instrumented rounds
    // attribute the median to sample/train/attack/aggregate/evaluate.
    {
        let mut sim = FedAvg::new(
            clients(),
            FedAvgConfig { rounds: u64::MAX, local_epochs: 2, ..Default::default() },
        );
        let rec = cia_core::Recorder::new();
        rec.set_detail(true);
        sim.set_recorder(rec.clone());
        const PHASE_ROUNDS: u64 = 5;
        for _ in 0..PHASE_ROUNDS {
            sim.step(&mut NullObserver);
        }
        emit_phase_rows(&format!("fedavg_round_paper_943x1682{t}"), &rec, PHASE_ROUNDS);
    }
    c.bench_function(&format!("gossip_round_paper_943x1682{t}"), |b| {
        let mut sim =
            GossipSim::new(clients(), GossipConfig { rounds: u64::MAX, ..Default::default() });
        b.iter(|| sim.step(&mut NullGossipObserver));
    });
    // Phase-annotated twin of the gossip row, plus the per-neighbor mixing
    // cost: mix+train stay fused in one cache-hot pass (PR 7), so mixing
    // never gets its own span — its distribution surfaces only through the
    // `mix_us` histogram, recorded here as `<base>_mix_us_p50`/`_p99` rows.
    // One untraced warm-up round fills the model pool first, so the rows
    // attribute a steady round, like the timed row above, rather than the
    // cold round's one-off buffer allocation.
    {
        let mut sim =
            GossipSim::new(clients(), GossipConfig { rounds: u64::MAX, ..Default::default() });
        sim.step(&mut NullGossipObserver);
        let rec = cia_core::Recorder::new();
        rec.set_detail(true);
        sim.set_recorder(rec.clone());
        const PHASE_ROUNDS: u64 = 5;
        for _ in 0..PHASE_ROUNDS {
            sim.step(&mut NullGossipObserver);
        }
        emit_mix_hist_rows(&format!("gossip_round_paper_943x1682{t}"), &rec);
        emit_phase_rows(&format!("gossip_round_paper_943x1682{t}"), &rec, PHASE_ROUNDS);
    }
}

/// Appends per-phase breakdown rows (`<base>_phase_<name>`) to the
/// `CRITERION_JSON` stream: the mean ns/round each top-level recorder span
/// (sample, train, attack, aggregate, evaluate, …) cost over `rounds`
/// instrumented rounds. The phase pass runs *outside* `Bencher::iter` — the
/// timed rows stay un-instrumented — so the breakdown annotates the
/// end-to-end median instead of perturbing it.
fn emit_phase_rows(base: &str, rec: &cia_core::Recorder, rounds: u64) {
    let Some(path) = std::env::var_os("CRITERION_JSON") else {
        return;
    };
    let chunk = rec.drain();
    let mut names: Vec<&'static str> = Vec::new();
    let mut sums: Vec<u64> = Vec::new();
    for s in chunk.spans.iter().filter(|s| s.depth == 0) {
        match names.iter().position(|&n| n == s.name) {
            Some(i) => sums[i] += s.dur_us,
            None => {
                names.push(s.name);
                sums.push(s.dur_us);
            }
        }
    }
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .expect("CRITERION_JSON path is writable");
    for (name, total_us) in names.iter().zip(&sums) {
        let ns_per_round = *total_us as f64 * 1000.0 / rounds.max(1) as f64;
        use std::io::Write as _;
        writeln!(file, r#"{{"name": "{base}_phase_{name}", "median_ns": {ns_per_round:.1}}}"#)
            .expect("CRITERION_JSON stream is writable");
    }
}

/// Appends the per-neighbor gossip mixing-cost rows (`<base>_mix_us_p50`,
/// `<base>_mix_us_p99`) to the `CRITERION_JSON` stream, from the recorder's
/// `mix_us` histogram (one observation per neighborhood mix). `median_ns`
/// carries the quantile so the rows fold into `BENCH_kernels.json` like any
/// other; `count` records how many mixes the quantiles summarize.
fn emit_mix_hist_rows(base: &str, rec: &cia_core::Recorder) {
    let Some(path) = std::env::var_os("CRITERION_JSON") else {
        return;
    };
    let hist = rec.histogram(cia_core::Metric::MixMicros);
    if hist.count() == 0 {
        return;
    }
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .expect("CRITERION_JSON path is writable");
    for (label, q) in [("p50", 0.5), ("p99", 0.99)] {
        let ns = hist.quantile(q) * 1000;
        use std::io::Write as _;
        writeln!(
            file,
            r#"{{"name": "{base}_mix_us_{label}", "median_ns": {ns}, "count": {}}}"#,
            hist.count()
        )
        .expect("CRITERION_JSON stream is writable");
    }
}

/// `_tN` suffix for the paper-scale round rows when `CIA_THREADS=N>1`, so a
/// thread-scaling sweep (`CIA_THREADS=2 scripts/bench_kernels.sh --scale
/// paper paper`) records alongside the single-thread baseline instead of
/// overwriting it.
fn thread_suffix() -> String {
    match std::env::var("CIA_THREADS").ok().and_then(|v| v.parse::<usize>().ok()) {
        Some(n) if n > 1 => format!("_t{n}"),
        _ => String::new(),
    }
}

fn config() -> Criterion {
    // Paper-scale rounds run tens of milliseconds on a shared single-core
    // container whose load wobbles ±10%; a longer measurement window keeps
    // the recorded medians from tracking transient neighbors instead of the
    // code. (`cargo bench -- --test` ignores these and runs each body once.)
    Criterion::default()
        .sample_size(30)
        .warm_up_time(Duration::from_millis(500))
        .measurement_time(Duration::from_secs(4))
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_kernels, bench_scoring, bench_momentum_and_dp, bench_mlp_train,
              bench_protocol_rounds, bench_attack_eval, bench_ground_truth,
              bench_paper_scale
}
criterion_main!(benches);
