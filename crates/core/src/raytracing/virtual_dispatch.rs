//! The CUDA-style *virtual dispatch* material hierarchy.
//!
//! The original Altis Raytracing dispatches materials through virtual
//! functions — unsupported in SYCL kernels, which forced the paper's
//! enum rewrite (Section 3.2.2). This module keeps the virtual-dispatch
//! formulation alive as a host-only implementation (trait objects are
//! fine on the CPU, exactly as DPC++'s experimental support is
//! CPU-only), so the refactor can be *proven* semantics-preserving: the
//! equivalence test renders the same scene through both dispatch
//! mechanisms and compares bit-for-bit.

use super::{MaterialFused, MaterialType, Vec3};

/// The abstract material interface of the CUDA original
/// (`virtual bool scatter(...)`).
pub trait Material {
    /// Given an incident direction, the hit normal, and three RNG draws,
    /// produce the attenuation and scattered direction (or `None` for
    /// absorption). The RNG draws are passed in so dispatch mechanisms
    /// can be compared without entangling RNG state.
    fn scatter(
        &self,
        dir: Vec3,
        normal: Vec3,
        rng_draws: [f32; 4],
    ) -> Option<(Vec3, Vec3)>;
}

/// Diffuse material.
pub struct Lambertian {
    /// Surface colour.
    pub albedo: Vec3,
}

/// Reflective material with fuzz.
pub struct Metal {
    /// Surface colour.
    pub albedo: Vec3,
    /// Reflection perturbation radius.
    pub fuzz: f32,
}

/// Refractive material.
pub struct Dielectric {
    /// Refraction index.
    pub ref_idx: f32,
}

fn unit_sphere_sample(draws: [f32; 4]) -> Vec3 {
    let v = Vec3::new(2.0 * draws[0] - 1.0, 2.0 * draws[1] - 1.0, 2.0 * draws[2] - 1.0);
    v.unit().scale(draws[3])
}

impl Material for Lambertian {
    fn scatter(&self, _dir: Vec3, normal: Vec3, draws: [f32; 4]) -> Option<(Vec3, Vec3)> {
        let target = normal.add(unit_sphere_sample(draws)).unit();
        Some((self.albedo, target))
    }
}

impl Material for Metal {
    fn scatter(&self, dir: Vec3, normal: Vec3, draws: [f32; 4]) -> Option<(Vec3, Vec3)> {
        let reflected = dir.unit().reflect(normal);
        let scattered = reflected
            .add(unit_sphere_sample(draws).scale(self.fuzz))
            .unit();
        (scattered.dot(normal) > 0.0).then_some((self.albedo, scattered))
    }
}

impl Material for Dielectric {
    fn scatter(&self, dir: Vec3, normal: Vec3, draws: [f32; 4]) -> Option<(Vec3, Vec3)> {
        let unit = dir.unit();
        let cos = (-unit.dot(normal)).clamp(-1.0, 1.0);
        let (outward, ratio, cosine) = if unit.dot(normal) > 0.0 {
            (normal.scale(-1.0), self.ref_idx, self.ref_idx * -cos)
        } else {
            (normal, 1.0 / self.ref_idx, cos)
        };
        let dt = unit.dot(outward);
        let disc = 1.0 - ratio * ratio * (1.0 - dt * dt);
        let r0 = ((1.0 - self.ref_idx) / (1.0 + self.ref_idx)).powi(2);
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

/// Build the boxed (virtual) form of a fused material.
fn boxed_material(m: &MaterialFused) -> Box<dyn Material> {
    let u = m.unfuse();
    match u.m_type {
        MaterialType::Lambertian => Box::new(Lambertian { albedo: u.m_albedo }),
        MaterialType::Metal => Box::new(Metal { albedo: u.m_albedo, fuzz: u.m_fuzz }),
        MaterialType::Dielectric => Box::new(Dielectric { ref_idx: u.m_ref_idx }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::raytracing::{scatter_with_draws, MaterialOriginal};

    fn draws(seed: u32) -> [f32; 4] {
        let mut s = seed.max(1);
        let mut next = || {
            s ^= s << 13;
            s ^= s >> 17;
            s ^= s << 5;
            (s as f32) / (u32::MAX as f32)
        };
        [next(), next(), next(), next()]
    }

    #[test]
    fn virtual_and_enum_dispatch_agree_bitwise() {
        // The paper's refactor is exactly this equivalence: for every
        // material kind, the trait-object path and the enum path produce
        // bit-identical scatter results given the same RNG draws.
        for (i, m_type) in [
            MaterialType::Lambertian,
            MaterialType::Metal,
            MaterialType::Dielectric,
        ]
        .into_iter()
        .enumerate()
        {
            let fused: MaterialFused = MaterialOriginal {
                m_type,
                m_albedo: Vec3::new(0.8, 0.5, 0.3),
                m_fuzz: 0.2,
                m_ref_idx: 1.5,
            }
            .into();
            let boxed = boxed_material(&fused);
            for trial in 0..50u32 {
                let d = draws(trial * 31 + i as u32 + 1);
                let dir = Vec3::new(0.3, -0.7, -0.4);
                let normal = Vec3::new(0.1, 1.0, 0.05).unit();
                let via_virtual = boxed.scatter(dir, normal, d);
                let via_enum = scatter_with_draws(&fused, dir, normal, d);
                match (via_virtual, via_enum) {
                    (None, None) => {}
                    (Some((a1, d1)), Some((a2, d2))) => {
                        assert_eq!((a1, d1), (a2, d2), "{m_type:?} trial {trial}");
                    }
                    other => panic!("{m_type:?} trial {trial}: divergent {other:?}"),
                }
            }
        }
    }

    #[test]
    fn metal_absorbs_grazing_scatter() {
        let m = Metal { albedo: Vec3::new(1.0, 1.0, 1.0), fuzz: 1.0 };
        // A fuzzy reflection can point under the surface → absorbed.
        let mut absorbed = 0;
        for t in 0..100 {
            if m
                .scatter(
                    Vec3::new(1.0, -0.05, 0.0),
                    Vec3::new(0.0, 1.0, 0.0),
                    draws(t + 1),
                )
                .is_none()
            {
                absorbed += 1;
            }
        }
        assert!(absorbed > 0, "fuzzy grazing metal should absorb sometimes");
    }

    #[test]
    fn dielectric_always_scatters() {
        let m = Dielectric { ref_idx: 1.5 };
        for t in 0..50 {
            assert!(m
                .scatter(Vec3::new(0.2, -1.0, 0.1), Vec3::new(0.0, 1.0, 0.0), draws(t + 1))
                .is_some());
        }
    }
}
