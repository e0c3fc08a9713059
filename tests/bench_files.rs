//! Every committed `BENCH_*.json` is an honest measurement record: it
//! parses, says what host and commit it was taken on with no more pool
//! threads than cores, and every gate it recorded passed.

use hetero_serve::json::{self, Json};

#[test]
fn committed_bench_files_are_stamped_and_gated() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut seen = 0;
    for entry in std::fs::read_dir(&root).expect("repo root") {
        let path = entry.expect("dir entry").path();
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        if !(name.starts_with("BENCH_") && name.ends_with(".json")) {
            continue;
        }
        seen += 1;
        let text = std::fs::read_to_string(&path).expect("readable");
        let doc = json::parse(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        let host = doc.get("host").unwrap_or_else(|| panic!("{name}: no host stamp"));
        let num = |k: &str| {
            host.get(k).and_then(Json::as_u64).unwrap_or_else(|| panic!("{name}: host.{k}"))
        };
        assert!(num("nproc") >= 1, "{name}: nproc");
        assert!(
            (1..=num("nproc")).contains(&num("threads")),
            "{name}: {} pool threads on {} cores",
            num("threads"),
            num("nproc")
        );
        for key in ["commit", "rustc"] {
            let v = host.get(key).and_then(Json::as_str);
            assert!(v.is_some_and(|s| !s.is_empty() && s != "unknown"), "{name}: host.{key}");
        }
        let Some(Json::Arr(gates)) = doc.get("gates") else { panic!("{name}: no gates array") };
        for g in gates {
            let gate = g.get("name").and_then(Json::as_str).unwrap_or("<unnamed>");
            for key in ["value", "bound"] {
                assert!(g.get(key).and_then(Json::as_f64).is_some(), "{name}: gate '{gate}' {key}");
            }
            assert!(g.get("op").and_then(Json::as_str).is_some(), "{name}: gate '{gate}' op");
            assert_eq!(
                g.get("pass").and_then(Json::as_bool),
                Some(true),
                "{name}: gate '{gate}' did not pass"
            );
        }
    }
    assert_eq!(seen, 6, "committed bench files");
}
