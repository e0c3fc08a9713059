//! Raytracing — sphere-scene path tracer.
//!
//! Paper relevance: Raytracing required the heaviest manual refactoring
//! of the whole migration. The CUDA original dispatches materials
//! through *virtual functions*, which SYCL kernels do not support, so
//! the paper rewrites them as tagged dispatch — reproduced here as a
//! Rust enum. Section 5.1's datatype optimisation (Listing 1) fuses the
//! material's mixed-type fields into a single 8-float vector so the FPGA
//! compiler infers a stall-free memory system; both layouts are
//! implemented and tested for equivalence. The RNG also changed during
//! migration (cuRAND XORWOW → oneMKL philox), which is why the paper's
//! CUDA/SYCL times are "not directly comparable" — our versions share
//! one deterministic per-pixel RNG instead.

use altis_data::{InputSize, RaytracingParams, SeededRng};
use altis_data::paper_scale::raytracing as pparams;
use device_model::{EfficiencyHints, WorkProfile};
use fpga_sim::{Design, FpgaPart, KernelInstance};
use hetero_ir::builder::{KernelBuilder, LoopBuilder};
use hetero_ir::dpct::{Construct, CudaModule, TimingApi};
use hetero_ir::ir::{AccessPattern, OpMix, Scalar};
use hetero_rt::prelude::*;

use crate::common::{egress, AppVersion};

#[cfg(test)]
mod virtual_dispatch;

/// 3-vector.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Vec3 {
    /// x component.
    pub x: f32,
    /// y component.
    pub y: f32,
    /// z component.
    pub z: f32,
}

// The inherent add/sub/mul mirror the CUDA original's float3 helper
// names; operator traits would obscure the correspondence.
#[allow(clippy::should_implement_trait)]
impl Vec3 {
    /// Construct.
    pub fn new(x: f32, y: f32, z: f32) -> Self {
        Vec3 { x, y, z }
    }
    /// Component-wise sum.
    pub fn add(self, o: Vec3) -> Vec3 {
        Vec3::new(self.x + o.x, self.y + o.y, self.z + o.z)
    }
    /// Component-wise difference.
    pub fn sub(self, o: Vec3) -> Vec3 {
        Vec3::new(self.x - o.x, self.y - o.y, self.z - o.z)
    }
    /// Scalar multiply.
    pub fn scale(self, k: f32) -> Vec3 {
        Vec3::new(self.x * k, self.y * k, self.z * k)
    }
    /// Component-wise product.
    pub fn mul(self, o: Vec3) -> Vec3 {
        Vec3::new(self.x * o.x, self.y * o.y, self.z * o.z)
    }
    /// Dot product.
    pub fn dot(self, o: Vec3) -> f32 {
        self.x * o.x + self.y * o.y + self.z * o.z
    }
    /// Euclidean length.
    fn length(self) -> f32 {
        self.dot(self).sqrt()
    }
    /// Normalised copy (zero vector stays zero).
    pub fn unit(self) -> Vec3 {
        let l = self.length();
        if l > 0.0 {
            self.scale(1.0 / l)
        } else {
            self
        }
    }
    /// Mirror reflection about a normal.
    pub fn reflect(self, n: Vec3) -> Vec3 {
        self.sub(n.scale(2.0 * self.dot(n)))
    }
}

/// Material kinds — the paper's enum replacement for CUDA virtual
/// dispatch (Section 3.2.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MaterialType {
    /// Diffuse.
    Lambertian,
    /// Reflective with fuzz.
    Metal,
    /// Refractive.
    Dielectric,
}

/// The *original* material layout of Listing 1: mixed member types.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MaterialOriginal {
    /// Kind tag.
    pub m_type: MaterialType,
    /// Albedo (lambertian and metal).
    pub m_albedo: Vec3,
    /// Fuzz (metal).
    pub m_fuzz: f32,
    /// Refraction index (dielectric).
    pub m_ref_idx: f32,
}

/// The *optimized* layout of Listing 1: everything fused into one
/// 8-float vector so the FPGA memory system is stall-free.
/// data\[0\] = fuzz, data\[1\] = ref_idx, data\[2..5\] = albedo,
/// data\[5\] = type (0 = metal, 1 = dielectric, 2 = lambertian),
/// data\[6..8\] unused.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct MaterialFused {
    /// The fused field vector (`sycl::float8` in the paper).
    pub data: [f32; 8],
}

impl From<MaterialOriginal> for MaterialFused {
    fn from(m: MaterialOriginal) -> Self {
        let mut data = [0f32; 8];
        data[0] = m.m_fuzz;
        data[1] = m.m_ref_idx;
        data[2] = m.m_albedo.x;
        data[3] = m.m_albedo.y;
        data[4] = m.m_albedo.z;
        data[5] = match m.m_type {
            MaterialType::Metal => 0.0,
            MaterialType::Dielectric => 1.0,
            MaterialType::Lambertian => 2.0,
        };
        MaterialFused { data }
    }
}

impl MaterialFused {
    /// Recover the typed view.
    pub fn unfuse(&self) -> MaterialOriginal {
        MaterialOriginal {
            m_type: match self.data[5] as u32 {
                0 => MaterialType::Metal,
                1 => MaterialType::Dielectric,
                _ => MaterialType::Lambertian,
            },
            m_albedo: Vec3::new(self.data[2], self.data[3], self.data[4]),
            m_fuzz: self.data[0],
            m_ref_idx: self.data[1],
        }
    }
}

/// A sphere.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sphere {
    /// Centre.
    pub center: Vec3,
    /// Radius.
    pub radius: f32,
    /// Material (fused layout; the kernel unfuses on load).
    pub material: MaterialFused,
}

/// Per-pixel deterministic RNG (xorshift) so sequential and parallel
/// renders are bit-identical.
#[derive(Debug, Clone, Copy)]
struct PixelRng {
    s: u32,
}

impl PixelRng {
    fn new(pixel: usize, sample: usize) -> Self {
        let mut s = (pixel as u32).wrapping_mul(9781)
            ^ (sample as u32).wrapping_mul(6271)
            ^ 0x9E3779B9;
        if s == 0 {
            s = 1;
        }
        PixelRng { s }
    }
    fn next(&mut self) -> f32 {
        self.s ^= self.s << 13;
        self.s ^= self.s >> 17;
        self.s ^= self.s << 5;
        (self.s as f32) / (u32::MAX as f32)
    }
}

/// Build the deterministic scene.
pub fn generate_scene(p: &RaytracingParams) -> Vec<Sphere> {
    let mut rng = SeededRng::new("raytracing", p.spheres);
    let mut scene = Vec::with_capacity(p.spheres + 1);
    // Ground sphere.
    scene.push(Sphere {
        center: Vec3::new(0.0, -1000.5, -1.0),
        radius: 1000.0,
        material: MaterialOriginal {
            m_type: MaterialType::Lambertian,
            m_albedo: Vec3::new(0.5, 0.5, 0.5),
            m_fuzz: 0.0,
            m_ref_idx: 1.0,
        }
        .into(),
    });
    for i in 0..p.spheres {
        let m_type = match i % 3 {
            0 => MaterialType::Lambertian,
            1 => MaterialType::Metal,
            _ => MaterialType::Dielectric,
        };
        scene.push(Sphere {
            center: Vec3::new(rng.f32(-4.0, 4.0), rng.f32(-0.3, 0.8), rng.f32(-4.0, -0.5)),
            radius: rng.f32(0.1, 0.4),
            material: MaterialOriginal {
                m_type,
                m_albedo: Vec3::new(rng.f32(0.1, 1.0), rng.f32(0.1, 1.0), rng.f32(0.1, 1.0)),
                m_fuzz: rng.f32(0.0, 0.3),
                m_ref_idx: 1.5,
            }
            .into(),
        });
    }
    scene
}

struct Hit {
    point: Vec3,
    normal: Vec3,
    material: MaterialFused,
}

fn hit_scene(scene: &[Sphere], origin: Vec3, dir: Vec3, t_max: f32) -> Option<Hit> {
    let mut best: Option<Hit> = None;
    let mut closest = t_max;
    for s in scene {
        let oc = origin.sub(s.center);
        let a = dir.dot(dir);
        let b = oc.dot(dir);
        let c = oc.dot(oc) - s.radius * s.radius;
        let disc = b * b - a * c;
        if disc > 0.0 {
            let sq = disc.sqrt();
            for t in [(-b - sq) / a, (-b + sq) / a] {
                if t > 1e-3 && t < closest {
                    closest = t;
                    let point = origin.add(dir.scale(t));
                    best = Some(Hit {
                        point,
                        normal: point.sub(s.center).scale(1.0 / s.radius),
                        material: s.material,
                    });
                    break;
                }
            }
        }
    }
    best
}

/// Scatter using tagged dispatch (the paper's virtual-function
/// replacement), with the RNG draws passed in explicitly so the enum
/// path and the CUDA-style virtual path ([`virtual_dispatch`]) can be
/// compared bit-for-bit.
pub(crate) fn scatter_with_draws(
    material: &MaterialFused,
    dir: Vec3,
    normal: Vec3,
    draws: [f32; 4],
) -> Option<(Vec3, Vec3)> {
    let m = material.unfuse();
    let in_sphere = || {
        Vec3::new(2.0 * draws[0] - 1.0, 2.0 * draws[1] - 1.0, 2.0 * draws[2] - 1.0)
            .unit()
            .scale(draws[3])
    };
    match m.m_type {
        MaterialType::Lambertian => {
            let target = normal.add(in_sphere()).unit();
            Some((m.m_albedo, target))
        }
        MaterialType::Metal => {
            let reflected = dir.unit().reflect(normal);
            let scattered = reflected.add(in_sphere().scale(m.m_fuzz)).unit();
            (scattered.dot(normal) > 0.0).then_some((m.m_albedo, scattered))
        }
        MaterialType::Dielectric => {
            // Schlick + refraction.
            let unit = dir.unit();
            let cos = (-unit.dot(normal)).clamp(-1.0, 1.0);
            let (outward, ratio, cosine) = if unit.dot(normal) > 0.0 {
                (normal.scale(-1.0), m.m_ref_idx, m.m_ref_idx * -cos)
            } else {
                (normal, 1.0 / m.m_ref_idx, cos)
            };
            let dt = unit.dot(outward);
            let disc = 1.0 - ratio * ratio * (1.0 - dt * dt);
            let r0 = ((1.0 - m.m_ref_idx) / (1.0 + m.m_ref_idx)).powi(2);
            let reflect_prob = if disc > 0.0 {
                r0 + (1.0 - r0) * (1.0 - cosine.abs()).powi(5)
            } else {
                1.0
            };
            let out_dir = if draws[0] < reflect_prob || disc <= 0.0 {
                unit.reflect(normal)
            } else {
                unit.sub(outward.scale(dt))
                    .scale(ratio)
                    .sub(outward.scale(disc.sqrt()))
                    .unit()
            };
            Some((Vec3::new(1.0, 1.0, 1.0), out_dir))
        }
    }
}

/// Scatter from a pixel's RNG stream: draws a fixed four values so the
/// dispatch comparison stays deterministic across mechanisms.
fn scatter(rng: &mut PixelRng, dir: Vec3, hit: &Hit) -> Option<(Vec3, Vec3)> {
    let draws = [rng.next(), rng.next(), rng.next(), rng.next()];
    scatter_with_draws(&hit.material, dir, hit.normal, draws)
}

fn sky(dir: Vec3) -> Vec3 {
    let t = 0.5 * (dir.unit().y + 1.0);
    Vec3::new(1.0, 1.0, 1.0)
        .scale(1.0 - t)
        .add(Vec3::new(0.5, 0.7, 1.0).scale(t))
}

fn trace(scene: &[Sphere], rng: &mut PixelRng, mut origin: Vec3, mut dir: Vec3, max_depth: usize) -> Vec3 {
    let mut attenuation = Vec3::new(1.0, 1.0, 1.0);
    for _ in 0..max_depth {
        match hit_scene(scene, origin, dir, 1e9) {
            Some(hit) => match scatter(rng, dir, &hit) {
                Some((albedo, new_dir)) => {
                    attenuation = attenuation.mul(albedo);
                    origin = hit.point;
                    dir = new_dir;
                }
                None => return Vec3::default(),
            },
            None => return attenuation.mul(sky(dir)),
        }
    }
    Vec3::default()
}

fn render_pixel(p: &RaytracingParams, scene: &[Sphere], x: usize, y: usize) -> Vec3 {
    let mut color = Vec3::default();
    let aspect = p.width as f32 / p.height as f32;
    for s in 0..p.samples {
        let mut rng = PixelRng::new(y * p.width + x, s);
        let u = (x as f32 + rng.next()) / p.width as f32;
        let v = (y as f32 + rng.next()) / p.height as f32;
        let dir = Vec3::new((2.0 * u - 1.0) * aspect, 2.0 * v - 1.0, -1.5);
        color = color.add(trace(scene, &mut rng, Vec3::new(0.0, 0.3, 1.0), dir, p.max_depth));
    }
    color.scale(1.0 / p.samples as f32)
}

/// Golden reference: sequential render (RGB f32 triplets).
pub fn golden(p: &RaytracingParams) -> Vec<f32> {
    let scene = generate_scene(p);
    let mut img = vec![0f32; p.width * p.height * 3];
    for y in 0..p.height {
        for x in 0..p.width {
            let c = render_pixel(p, &scene, x, y);
            let i = (y * p.width + x) * 3;
            img[i] = c.x;
            img[i + 1] = c.y;
            img[i + 2] = c.z;
        }
    }
    img
}

/// Runtime version: one work-item per pixel.
pub fn run(q: &Queue, p: &RaytracingParams, _version: AppVersion) -> Vec<f32> {
    let scene = generate_scene(p);
    let out = Buffer::<f32>::new(p.width * p.height * 3);
    let v = out.view();
    let scene_ref = &scene;
    let pp = *p;
    q.submit(&[writes(&out)]).parallel_for("raytrace", Range::d2(p.width, p.height), move |it| {
        let (x, y) = (it.gid(0), it.gid(1));
        let c = render_pixel(&pp, scene_ref, x, y);
        let i = (y * pp.width + x) * 3;
        v.set(i, c.x);
        v.set(i + 1, c.y);
        v.set(i + 2, c.z);
    });
    egress(out)
}

/// Analytic work profile.
pub fn work_profile(size: InputSize) -> WorkProfile {
    let p = pparams(size);
    let rays = (p.width * p.height * p.samples) as u64;
    let bounce_avg = 3;
    let per_ray = (p.spheres as u64 + 1) * 15 * bounce_avg;
    WorkProfile {
        f32_flops: rays * per_ray,
        f64_flops: 0,
        global_bytes: rays * 64,
        kernel_launches: 1,
        transfer_bytes: (p.width * p.height * 12) as u64,
        hints: EfficiencyHints { compute: 0.35, memory: 0.7 },
    }
}

/// FPGA designs: ND-Range (Table 3), unrolled sphere-intersection loop
/// (30× on Stratix 10, 16× on Agilex per Section 5.5). The baseline
/// carries the original mixed-type material layout, which the resource
/// model penalises with arbiters (non-stall-free memory); the optimized
/// design uses the fused `float8` layout (Listing 1).
pub fn fpga_design(size: InputSize, optimized: bool, part: &FpgaPart) -> Design {
    let p = pparams(size);
    let rays = (p.width * p.height * p.samples) as u64;
    let is_agilex = part.name == "Agilex";
    let unroll = if optimized {
        if is_agilex {
            16
        } else {
            30
        }
    } else {
        1
    };

    let sphere_loop = LoopBuilder::new("spheres", (p.spheres + 1) as u64)
        .body(OpMix {
            f32_ops: 14,
            fdiv_ops: 1,
            cmp_sel_ops: 3,
            local_reads: 8,
            ..OpMix::default()
        })
        .unroll(unroll)
        .build();
    // Both designs predicate dead bounces instead of exiting early (the
    // refactor that removed CUDA recursion also fixed the loop depth),
    // so the bounce loop always pipelines.
    let bounce_loop = LoopBuilder::new("bounces", 3)
        .body(OpMix {
            f32_ops: 25,
            transcendental_ops: 1,
            cmp_sel_ops: 6,
            ..OpMix::default()
        })
        .child(sphere_loop)
        .build();
    let mut b = KernelBuilder::nd_range("raytrace", 64)
        .loop_(bounce_loop)
        .straight_line(OpMix { global_write_bytes: 12, f32_ops: 8, ..OpMix::default() })
        .local_array(
            "scene",
            Scalar::F32,
            (p.spheres + 1) * 12,
            // Listing 1: the original layout's memory system is not
            // stall-free; the fused layout banks cleanly.
            if optimized { AccessPattern::Banked } else { AccessPattern::Irregular },
        );
    if optimized {
        b = b.restrict();
    }
    Design::new(format!(
        "raytracing-{}-{}",
        if optimized { "opt" } else { "base" },
        size
    ))
    .with(KernelInstance::new(b.build()).items(rays))
}

/// DPCT source model: the virtual-function story.
pub fn cuda_module() -> CudaModule {
    CudaModule {
        name: "raytracing".into(),
        constructs: vec![
            Construct::Timing { api: TimingApi::CudaEvents, wraps_library_call: false },
            Construct::VirtualFunctions,
            Construct::DynamicKernelAlloc,
            Construct::UsmMemAdvise,
            Construct::WorkGroupSize { size: 64, has_attributes: false },
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> RaytracingParams {
        RaytracingParams {
            width: 32,
            height: 24,
            samples: 1,
            spheres: 8,
            max_depth: 4,
        }
    }

    #[test]
    fn runtime_matches_golden_bit_exactly() {
        let p = tiny();
        let q = Queue::new(Device::cpu());
        assert_eq!(run(&q, &p, AppVersion::SyclOptimized), golden(&p));
    }

    #[test]
    fn material_fusion_roundtrips() {
        // Listing 1's layout change must preserve every field.
        let original = MaterialOriginal {
            m_type: MaterialType::Metal,
            m_albedo: Vec3::new(0.8, 0.6, 0.2),
            m_fuzz: 0.15,
            m_ref_idx: 1.5,
        };
        let fused: MaterialFused = original.into();
        assert_eq!(fused.unfuse(), original);
        for t in [MaterialType::Lambertian, MaterialType::Dielectric] {
            let m = MaterialOriginal { m_type: t, ..original };
            assert_eq!(MaterialFused::from(m).unfuse().m_type, t);
        }
    }

    #[test]
    fn image_is_mostly_sky_colored_at_top() {
        let p = tiny();
        let img = golden(&p);
        // Top rows look at the sky: blueish (b > r).
        let y = p.height - 1;
        let mut sky_pixels = 0;
        for x in 0..p.width {
            let i = (y * p.width + x) * 3;
            if img[i + 2] >= img[i] {
                sky_pixels += 1;
            }
        }
        assert!(sky_pixels > p.width / 2);
    }

    #[test]
    fn colors_are_in_unit_range() {
        let img = golden(&tiny());
        assert!(img.iter().all(|&c| (0.0..=1.0001).contains(&c)));
    }

    #[test]
    fn metal_reflection_preserves_energy_direction() {
        let v = Vec3::new(1.0, -1.0, 0.0);
        let n = Vec3::new(0.0, 1.0, 0.0);
        let r = v.reflect(n);
        assert!((r.x - 1.0).abs() < 1e-6 && (r.y - 1.0).abs() < 1e-6);
    }

    #[test]
    fn fused_layout_design_avoids_arbiters() {
        let part = FpgaPart::stratix10();
        let base = fpga_design(InputSize::S1, false, &part);
        let opt = fpga_design(InputSize::S1, true, &part);
        // The original layout costs Fmax (arbiters on the critical path).
        let f_base = fpga_sim::estimate_fmax(&base, &part);
        let f_opt = fpga_sim::estimate_fmax(&opt, &part);
        assert!(f_opt > f_base, "{f_opt} vs {f_base}");
    }

    #[test]
    fn fpga_designs_fit() {
        for part in [FpgaPart::stratix10(), FpgaPart::agilex()] {
            for opt in [false, true] {
                let d = fpga_design(InputSize::S2, opt, &part);
                fpga_sim::resources::check_fit(&d, &part)
                    .unwrap_or_else(|e| panic!("{} {e}", d.name));
            }
        }
    }

    #[test]
    fn pixel_rng_is_deterministic_and_pixel_local() {
        let mut a = PixelRng::new(100, 0);
        let mut b = PixelRng::new(100, 0);
        let mut c = PixelRng::new(101, 0);
        assert_eq!(a.next(), b.next());
        assert_ne!(a.next(), c.next());
    }
}
