//! JSON emission for everything the bench crate writes: a small
//! insertion-ordered value builder ([`Obj`] / [`Val`]) and, on top of
//! it, `repro --json`'s document of every regenerated artifact.
//!
//! No external JSON crate (the workspace builds offline); strings are
//! escaped by `hetero_serve::json::escape`, whose parser is what the
//! tests read the output back with.

use crate::harness::*;
use altis_data::InputSize;
use hetero_serve::json::escape;

/// One JSON value. Numbers are `f64`: integral values print without a
/// fraction, others rounded to six significant digits, non-finite ones
/// as `null`.
#[derive(Debug, Clone, PartialEq)]
pub enum Val {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number.
    Num(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Val>),
    /// An object, keys in insertion order.
    Obj(Obj),
}

/// A JSON object under construction: `Obj::new().set("k", v).set(…)`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Obj(Vec<(String, Val)>);

impl Obj {
    /// An empty object.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append `key: value` (no de-duplication; callers name each key once).
    pub fn set(mut self, key: &str, value: impl Into<Val>) -> Self {
        self.push(key, value);
        self
    }

    /// [`Obj::set`] through a mutable reference.
    pub fn push(&mut self, key: &str, value: impl Into<Val>) {
        self.0.push((key.to_string(), value.into()));
    }

    /// The object on one line with no spaces: the verdict-line form.
    pub fn line(&self) -> String {
        let mut out = String::new();
        write_obj(self, None, "", &mut out);
        out
    }

    /// The object as a file: one top-level key per line, arrays of
    /// composites one element per line, everything deeper inline.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        write_obj(self, Some(0), " ", &mut out);
        out.push('\n');
        out
    }
}

/// `depth`: `Some(n)` while line breaks are allowed, `n` being the
/// indent of the line the value starts on (the top-level object and
/// arrays of composites break); `None` stays inline.
fn write_val(v: &Val, depth: Option<usize>, sp: &str, out: &mut String) {
    match v {
        Val::Null => out.push_str("null"),
        Val::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Val::Num(n) if !n.is_finite() => out.push_str("null"),
        Val::Num(n) if n.fract() == 0.0 => out.push_str(&n.to_string()),
        Val::Num(n) => {
            // Six significant digits: timings carry no more than that.
            let rounded: f64 = format!("{n:.5e}").parse().expect("formatted float parses");
            out.push_str(&rounded.to_string());
        }
        Val::Str(s) => {
            out.push('"');
            out.push_str(&escape(s));
            out.push('"');
        }
        Val::Arr(items) => {
            let composite = items.iter().any(|i| matches!(i, Val::Arr(_) | Val::Obj(_)));
            let broken = depth.filter(|_| composite);
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                match broken {
                    Some(d) => newline(d + 1, out),
                    None if i > 0 => out.push_str(sp),
                    None => {}
                }
                write_val(item, broken.map(|d| d + 1), sp, out);
            }
            if let (Some(d), false) = (broken, items.is_empty()) {
                newline(d, out);
            }
            out.push(']');
        }
        Val::Obj(o) => write_obj(o, depth, sp, out),
    }
}

fn write_obj(o: &Obj, depth: Option<usize>, sp: &str, out: &mut String) {
    let broken = depth.filter(|&d| d == 0);
    out.push('{');
    for (i, (k, v)) in o.0.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        match broken {
            Some(d) => newline(d + 1, out),
            None if i > 0 => out.push_str(sp),
            None => {}
        }
        out.push('"');
        out.push_str(&escape(k));
        out.push_str("\":");
        out.push_str(sp);
        write_val(v, depth.map(|d| d + broken.map_or(0, |_| 1)), sp, out);
    }
    if let (Some(d), false) = (broken, o.0.is_empty()) {
        newline(d, out);
    }
    out.push('}');
}

fn newline(depth: usize, out: &mut String) {
    out.push('\n');
    out.push_str(&"  ".repeat(depth));
}

macro_rules! val_from_num {
    ($($t:ty),*) => {$(
        impl From<$t> for Val {
            fn from(n: $t) -> Val {
                Val::Num(n as f64)
            }
        }
    )*};
}
val_from_num!(f64, u32, u64, usize, i32);

impl From<bool> for Val {
    fn from(b: bool) -> Val {
        Val::Bool(b)
    }
}

impl From<&str> for Val {
    fn from(s: &str) -> Val {
        Val::Str(s.to_string())
    }
}

impl From<String> for Val {
    fn from(s: String) -> Val {
        Val::Str(s)
    }
}

impl From<Obj> for Val {
    fn from(o: Obj) -> Val {
        Val::Obj(o)
    }
}

impl<T: Into<Val>> From<Option<T>> for Val {
    fn from(o: Option<T>) -> Val {
        o.map_or(Val::Null, Into::into)
    }
}

/// An array value from any iterator of convertible items.
pub fn arr<T: Into<Val>>(items: impl IntoIterator<Item = T>) -> Val {
    Val::Arr(items.into_iter().map(Into::into).collect())
}

/// Render every harness artifact as one JSON document.
pub fn results_json() -> String {
    let f5 = fig5();
    let mut geomeans = Obj::new();
    for size in InputSize::all() {
        geomeans.push(&format!("size{}", size.index()), arr(fig5_geomeans(&f5, size)));
    }
    let fpga = |r: &fpga_sim::Table3Row| {
        Obj::new()
            .set("alm_pct", r.alm_pct)
            .set("bram_pct", r.bram_pct)
            .set("dsp_pct", r.dsp_pct)
            .set("fmax_mhz", r.fmax_mhz)
    };
    Obj::new()
        .set(
            "table2",
            arr(table2().iter().map(|r| {
                Obj::new()
                    .set("device", r.device)
                    .set("process_nm", r.process_nm)
                    .set("peak_f32_tflops", r.peak_f32_tflops)
                    .set("peak_bw_gbs", r.peak_bw_gbs)
            })),
        )
        .set(
            "fig1",
            arr(fig1().iter().map(|b| {
                Obj::new()
                    .set("stack", b.stack)
                    .set("size", b.size.index())
                    .set("kernel_ms", b.kernel_ms)
                    .set("non_kernel_ms", b.non_kernel_ms)
            })),
        )
        .set(
            "fig2",
            arr(fig2().iter().map(|r| {
                Obj::new()
                    .set("app", r.app)
                    .set("baseline", arr(r.baseline))
                    .set("optimized", arr(r.optimized))
            })),
        )
        .set(
            "fig4",
            arr(fig4().iter().map(|r| Obj::new().set("app", r.app).set("speedup", arr(r.speedup)))),
        )
        .set(
            "fig5",
            arr(f5.iter().map(|r| {
                Obj::new()
                    .set("app", r.app)
                    .set("size", r.size.index())
                    .set("speedup", arr(r.speedup))
            })),
        )
        .set("fig5_geomeans", geomeans)
        .set(
            "table3",
            arr(table3().iter().map(|(s10, agx)| {
                Obj::new()
                    .set("design", s10.design.as_str())
                    .set("s10", fpga(s10))
                    .set("agilex", fpga(agx))
            })),
        )
        .set(
            "micro",
            arr(micro_studies().iter().map(|r| {
                Obj::new()
                    .set("study", r.study)
                    .set("measured", r.measured_factor)
                    .set("paper", r.paper_factor)
            })),
        )
        .pretty()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_is_structurally_balanced() {
        let j = results_json();
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
        for key in ["table2", "fig1", "fig2", "fig4", "fig5", "fig5_geomeans", "table3", "micro"] {
            assert!(j.contains(&format!("\"{key}\"")), "missing {key}");
        }
        hetero_serve::json::parse(&j).expect("results parse");
    }

    #[test]
    fn json_escapes_strings() {
        assert_eq!(Obj::new().set("s", "a\"b\\c\n").line(), "{\"s\":\"a\\\"b\\\\c\\n\"}");
    }

    #[test]
    fn missing_bars_serialize_as_null() {
        let j = results_json();
        // Where size 3 on Agilex is the missing bar.
        assert!(j.contains("null"));
    }
}
