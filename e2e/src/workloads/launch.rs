//! `launch_bound_s1`: the five launch-heavy apps at size 1 through
//! `run_with` in `PerLaunch`, `Graph` and `GraphOptimized`. Runtime
//! overhead, not kernel work, is most of the time here (FDTD2D at size 1
//! takes about 10 ms through the runtime and 0.3 ms sequentially), so
//! this is where a cheaper submit or replay shows. Only `run_with` is
//! timed; outputs are compared every time against goldens held from
//! set-up, with the suite's tolerances and version choices
//! (`suite::verify_graph_flavor`).

use std::hint::black_box;
use std::rc::Rc;
use std::time::Instant;

use altis_core::common::{rel_l2_error_t, AppVersion, ExecMode};
use altis_core::particlefilter::PfVariant;
use altis_core::{cfd, fdtd2d, kmeans, particlefilter, srad};
use altis_data::InputSize;
use hetero_rt::prelude::*;

use super::{round_latency, series_median, Check, Op, Rounds};

const SIZE: InputSize = InputSize::S1;

const MODES: [(&str, ExecMode); 3] = [
    ("per_launch", ExecMode::PerLaunch),
    ("graph", ExecMode::Graph),
    ("graph_opt", ExecMode::GraphOptimized),
];

/// A launch-heavy app reduced to what the benchmark needs: run it in a
/// mode and hand back the comparison of that output with the golden
/// held from set-up.
struct LaunchApp {
    slug: &'static str,
    #[allow(clippy::type_complexity)]
    run: Box<dyn Fn(&Queue, ExecMode) -> Check>,
}

/// The five apps with their goldens computed once, here.
fn launch_apps() -> Vec<LaunchApp> {
    let opt = AppVersion::SyclOptimized;
    let base = AppVersion::SyclBaseline;
    let mut apps = Vec::new();
    {
        let p = altis_data::fdtd2d(SIZE);
        let g = Rc::new(fdtd2d::golden(&p));
        apps.push(LaunchApp {
            slug: "fdtd2d",
            run: Box::new(move |q, m| {
                let (r, g) = (fdtd2d::run_with(q, &p, opt, m), g.clone());
                Box::new(move || r.ez == g.ez)
            }),
        });
    }
    {
        let p = altis_data::srad(SIZE);
        let g = Rc::new(srad::golden(&p));
        apps.push(LaunchApp {
            slug: "srad",
            run: Box::new(move |q, m| {
                let (r, g) = (srad::run_with(q, &p, opt, m), g.clone());
                Box::new(move || rel_l2_error_t(&g, &r) < 1e-3)
            }),
        });
    }
    {
        let p = altis_data::cfd(SIZE);
        let g = Rc::new(cfd::golden::<f32>(&p));
        apps.push(LaunchApp {
            slug: "cfd32",
            run: Box::new(move |q, m| {
                let (r, g) = (cfd::run_with::<f32>(q, &p, opt, m), g.clone());
                Box::new(move || rel_l2_error_t(&g, &r) < 1e-4)
            }),
        });
    }
    {
        let p = altis_data::kmeans(SIZE);
        let g = Rc::new(kmeans::golden(&p));
        apps.push(LaunchApp {
            slug: "kmeans",
            run: Box::new(move |q, m| {
                let (r, g) = (kmeans::run_with(q, &p, base, m), g.clone());
                Box::new(move || {
                    r.membership == g.membership && rel_l2_error_t(&g.centers, &r.centers) < 1e-4
                })
            }),
        });
    }
    {
        let p = altis_data::particlefilter(SIZE);
        let g = Rc::new(particlefilter::golden(&p, PfVariant::Naive));
        apps.push(LaunchApp {
            slug: "pf_naive",
            run: Box::new(move |q, m| {
                let (r, g) = (
                    particlefilter::run_with(q, &p, PfVariant::Naive, base, m),
                    g.clone(),
                );
                Box::new(move || r.xe.iter().zip(&g.xe).all(|(a, b)| (a - b).abs() < 0.05))
            }),
        });
    }
    apps
}

const PROBE_LAUNCHES: usize = 10_000;
const PROBE_ITEMS: usize = 64;
const PROBE_GROUP: usize = 16;
const GRAPH_NODES: usize = 16;
const GRAPH_REPLAYS: usize = 2_000;

/// Microprobe 1: a storm of 64-item launches. Returns microseconds per
/// launch, pool dispatches per launch (exact, from the pool's counter)
/// and the share of the loop's wall its kernels computed for, from the
/// profiling events: Figure 1's kernel bar for this runtime.
fn submit_probe() -> (f64, f64, f64) {
    let buf = Buffer::<f32>::new(PROBE_ITEMS);
    let view = buf.view();
    let kernel = |ctx: &GroupCtx| {
        ctx.items(|item| {
            let i = item.global_linear;
            view.set(i, view.get(i).mul_add(1.0, 0.5));
        });
    };
    let nd = NdRange::d1(PROBE_ITEMS, PROBE_GROUP);
    let q = Queue::new(Device::cpu());
    let launch = |q: &Queue| q.nd_range("e2e_probe", nd, kernel).expect("probe launch");
    launch(&q);
    let d0 = hetero_rt::pool::jobs_dispatched();
    let t0 = Instant::now();
    for _ in 0..PROBE_LAUNCHES {
        launch(&q);
    }
    let us = t0.elapsed().as_secs_f64() * 1e6 / PROBE_LAUNCHES as f64;
    let dispatches = (hetero_rt::pool::jobs_dispatched() - d0) as f64 / PROBE_LAUNCHES as f64;

    let qp = Queue::with_profiling(Device::cpu());
    let t0 = Instant::now();
    let mut compute_s = 0.0;
    for _ in 0..PROBE_LAUNCHES {
        let e = launch(&qp);
        compute_s += e
            .profiling()
            .map_or(0.0, |p| p.compute_time().as_secs_f64());
    }
    let kernel_frac = compute_s / t0.elapsed().as_secs_f64();
    black_box(&buf);
    (us, dispatches, kernel_frac)
}

/// Microprobe 2: a recorded graph of 16 independent two-group kernels
/// replayed back to back; microseconds per replayed launch.
fn replay_probe() -> f64 {
    let q = Queue::new(Device::cpu());
    let bufs: Vec<Buffer<f32>> = (0..GRAPH_NODES).map(|_| Buffer::<f32>::new(8)).collect();
    let graph = Graph::record(&q, |g| {
        for buf in &bufs {
            let view = buf.view();
            g.nd_range(
                "e2e_graph_probe",
                NdRange::d1(8, 4),
                &[reads_writes(buf)],
                move |ctx: &GroupCtx| {
                    ctx.items(|item| {
                        let i = item.global_linear;
                        view.set(i, view.get(i).mul_add(1.0, 0.5));
                    });
                },
            );
        }
    })
    .expect("probe graph records");
    graph.replay(&q).expect("probe replay");
    let t0 = Instant::now();
    for _ in 0..GRAPH_REPLAYS {
        graph.replay(&q).expect("probe replay");
    }
    t0.elapsed().as_secs_f64() * 1e6 / (GRAPH_REPLAYS * GRAPH_NODES) as f64
}

pub fn build() -> Rounds {
    let q = Queue::new(Device::cpu());
    let apps: Vec<Rc<LaunchApp>> = launch_apps().into_iter().map(Rc::new).collect();
    let mut ops = Vec::new();
    for app in &apps {
        for (label, mode) in MODES {
            // Warm each cell once: first use spawns the pool and fills
            // the buffer slab.
            assert!(
                (app.run)(&q, mode)(),
                "{} {label} fails its golden at set-up",
                app.slug
            );
            let (app, q) = (app.clone(), q.clone());
            ops.push(Op::checked_after(
                &format!("run.{}.{label}", app.slug),
                move |_| (app.run)(&q, mode),
            ));
        }
    }
    let slugs: Vec<&'static str> = apps.iter().map(|a| a.slug).collect();
    Rounds {
        ops,
        lat: round_latency(),
        cover_span: "round",
        layers: Box::new(move |_, rep| {
            for (label, _) in MODES {
                let total: f64 = slugs
                    .iter()
                    .map(|s| series_median(rep, &format!("run.{s}.{label}")))
                    .sum();
                rep.layer.insert(format!("rt.{label}_ms"), total);
            }
            let (submit_us, dispatches, kernel_frac) = submit_probe();
            rep.layer
                .insert("rt.submit_us_per_launch".into(), submit_us);
            rep.layer
                .insert("rt.pool_dispatches_per_launch".into(), dispatches);
            rep.layer.insert("rt.kernel_frac".into(), kernel_frac);
            rep.layer
                .insert("rt.replay_us_per_launch".into(), replay_probe());
            rep.layer.insert(
                "rt.pool_threads".into(),
                hetero_rt::pool::auto_threads() as f64,
            );
        }),
    }
}
