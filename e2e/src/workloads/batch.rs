//! `batch_s2`: time to a verified solution for all thirteen
//! configurations at size 2, `SyclOptimized`, CPU route.
//!
//! Untraced, an operation is one `AppEntry.verify` call. Traced, the
//! same operation is made from the app's public pieces — generate, run,
//! golden, compare with the suite's tolerances — each in its own span.
//! `run` and `golden` regenerate their inputs internally, so the
//! separate `gen` call is extra work and shows as tracing overhead.

use std::hint::black_box;

use altis_core::common::{rel_l2_error_t, AppVersion};
use altis_core::particlefilter::PfVariant;
use altis_core::suite::all_apps;
use altis_core::{
    cfd, dwt2d, fdtd2d, kmeans, lavamd, mandelbrot, nw, particlefilter, raytracing, srad, where_q,
};
use altis_data::InputSize;
use hetero_rt::prelude::*;

use super::{round_latency, Op, Rounds};
use crate::spec::APP_SLUGS;
use crate::stats::median;
use crate::trace::Tracer;

const SIZE: InputSize = InputSize::S2;
const VERSION: AppVersion = AppVersion::SyclOptimized;

/// One operation as four spans; `true` when the output validates.
fn split<I, R, G>(
    t: &mut Tracer,
    gen: impl FnOnce() -> I,
    run: impl FnOnce() -> R,
    golden: impl FnOnce() -> G,
    compare: impl FnOnce(&R, &G) -> bool,
) -> bool {
    t.span("gen", |_| {
        black_box(gen());
    });
    let r = t.span("run", |_| run());
    let g = t.span("golden", |_| golden());
    t.span("compare", |_| compare(&r, &g))
}

/// The traced form of `verify` for the configuration `slug`, with the
/// comparisons of `altis_core::suite`.
fn verify_split(slug: &str, q: &Queue, t: &mut Tracer) -> bool {
    let pf = |t: &mut Tracer, variant: PfVariant| {
        let p = altis_data::particlefilter(SIZE);
        split(
            t,
            || (),
            || particlefilter::run(q, &p, variant, VERSION),
            || particlefilter::golden(&p, variant),
            |r, g| r.xe.iter().zip(&g.xe).all(|(a, b)| (a - b).abs() < 0.05),
        )
    };
    match slug {
        "cfd32" => {
            let p = altis_data::cfd(SIZE);
            split(
                t,
                || cfd::generate::<f32>(&p),
                || cfd::run::<f32>(q, &p, VERSION),
                || cfd::golden::<f32>(&p),
                |r, g| rel_l2_error_t(g, r) < 1e-4,
            )
        }
        "cfd64" => {
            let p = altis_data::cfd(SIZE);
            split(
                t,
                || cfd::generate::<f64>(&p),
                || cfd::run::<f64>(q, &p, VERSION),
                || cfd::golden::<f64>(&p),
                |r, g| rel_l2_error_t(g, r) < 1e-10,
            )
        }
        "dwt2d" => {
            let p = altis_data::dwt2d(SIZE);
            split(
                t,
                || dwt2d::generate_image(&p),
                || dwt2d::run(q, &p, VERSION),
                || dwt2d::golden(&p),
                |r, g| rel_l2_error_t(g, r) < 1e-4,
            )
        }
        "fdtd2d" => {
            let p = altis_data::fdtd2d(SIZE);
            split(
                t,
                || (),
                || fdtd2d::run(q, &p, VERSION),
                || fdtd2d::golden(&p),
                |r, g| r.ez == g.ez,
            )
        }
        "kmeans" => {
            let p = altis_data::kmeans(SIZE);
            split(
                t,
                || kmeans::generate_points(&p),
                || kmeans::run(q, &p, VERSION),
                || kmeans::golden(&p),
                |r, g| {
                    r.membership == g.membership && rel_l2_error_t(&g.centers, &r.centers) < 1e-4
                },
            )
        }
        "lavamd" => {
            let p = altis_data::lavamd(SIZE);
            split(
                t,
                || lavamd::generate(&p),
                || lavamd::run(q, &p, VERSION),
                || lavamd::golden(&p),
                |r, g| {
                    let rv: Vec<f32> = r.iter().map(|f| f.v).collect();
                    let gv: Vec<f32> = g.iter().map(|f| f.v).collect();
                    rel_l2_error_t(&gv, &rv) < 1e-4
                },
            )
        }
        "mandelbrot" => {
            let p = altis_data::mandelbrot(SIZE);
            split(
                t,
                || (),
                || mandelbrot::run(q, &p, VERSION),
                || mandelbrot::golden(&p),
                |r, g| r == g,
            )
        }
        "nw" => {
            let p = altis_data::nw(SIZE);
            split(
                t,
                || nw::generate_sequences(&p),
                || nw::run(q, &p, VERSION),
                || nw::golden(&p),
                |r, g| r == g,
            )
        }
        "pf_naive" => pf(t, PfVariant::Naive),
        "pf_float" => pf(t, PfVariant::Float),
        "raytracing" => {
            let p = altis_data::raytracing(SIZE);
            split(
                t,
                || raytracing::generate_scene(&p),
                || raytracing::run(q, &p, VERSION),
                || raytracing::golden(&p),
                |r, g| r == g,
            )
        }
        "srad" => {
            let p = altis_data::srad(SIZE);
            split(
                t,
                || srad::generate_image(&p),
                || srad::run(q, &p, VERSION),
                || srad::golden(&p),
                |r, g| rel_l2_error_t(g, r) < 1e-3,
            )
        }
        "where" => {
            let p = altis_data::where_q(SIZE);
            split(
                t,
                || where_q::generate_records(&p),
                || where_q::run(q, &p, VERSION),
                || where_q::golden(&p),
                |r, g| r == g,
            )
        }
        other => unreachable!("no configuration '{other}'"),
    }
}

pub fn build() -> Rounds {
    let q = Queue::new(Device::cpu());
    // Spawn the pool and page the code in on the small size; size-2
    // buffers are allocated afresh by every operation anyway.
    let apps = all_apps();
    assert_eq!(
        apps.len(),
        APP_SLUGS.len(),
        "registry and slug table disagree"
    );
    for app in &apps {
        black_box((app.verify)(&q, InputSize::S1, VERSION));
    }
    let ops = apps
        .into_iter()
        .zip(APP_SLUGS)
        .map(|(app, slug)| {
            let q = q.clone();
            Op::call(&format!("op.{slug}"), move |t| {
                let ok = if t.enabled() {
                    verify_split(slug, &q, t)
                } else {
                    (app.verify)(&q, SIZE, VERSION)
                };
                ok.then_some(())
                    .ok_or_else(|| "output diverged from the golden reference".to_string())
            })
        })
        .collect();
    Rounds {
        ops,
        lat: round_latency(),
        cover_span: "round",
        layers: Box::new(|t, rep| {
            // Per-round cost of each piece: per-app medians, summed.
            let (mut gen, mut compare) = (0.0, 0.0);
            for slug in APP_SLUGS {
                let op = format!("op.{slug}");
                let piece = |name: &str| median(&t.durations(name, &op));
                rep.layer
                    .insert(format!("core.{slug}.run_ms"), piece("run"));
                rep.layer
                    .insert(format!("core.{slug}.golden_ms"), piece("golden"));
                gen += piece("gen");
                compare += piece("compare");
            }
            rep.layer.insert("core.gen_ms".into(), gen);
            rep.layer.insert("core.compare_ms".into(), compare);
        }),
    }
}
