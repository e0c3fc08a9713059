//! `lint` — hetero-san layer 3: source-level rules for kernel closures.
//!
//! A zero-dependency scanner (the workspace is offline, so no `syn`)
//! that walks `crates/core/src` and enforces portability rules inside
//! the closures passed to runtime launch calls, in kernels bound to a
//! name first (`move |it: Item| { … }`, launched on several routes) and
//! in lane bodies (`fn at<const W: usize>`, run through `lanes::sweep`)
//! — the code that models device kernels and must stay free of
//! host-only idioms:
//!
//! * **no-unwrap** — no `unwrap()` / `expect(...)` inside kernel bodies.
//!   A device kernel cannot print-and-abort; the runtime's containment
//!   turns typed panics into errors, but untyped unwraps defeat the
//!   classification.
//! * **no-raw-index** — no `ident[...]` indexing of captured host data
//!   inside kernels; device data goes through `BufferView`/`LocalArray`
//!   accessors so bounds faults stay typed and the race sanitizer sees
//!   the access. Indexing containers the closure itself declares (`let`
//!   bindings) is host-side scratch and allowed.
//! * **no-hashmap** — no `HashMap` inside kernels: its iteration order
//!   is seeded per process, so any kernel result that depends on it is
//!   non-deterministic across runs.
//! * **no-std-time** — no `std::time` / `Instant::now` inside kernels;
//!   timing belongs to the queue's profiling events, and wall-clock
//!   reads inside kernels diverge under the serialising CPU runtime.
//! * **as-cast** — no narrowing integer `as` casts (`as u8`/`u16`/`u32`/
//!   `i8`/`i16`/`i32`) inside kernels: `as` truncates silently, and a
//!   wrapped index or accumulator corrupts data with no fault for the
//!   SDC defense to catch. Suppress with `// lint:allow(as-cast)` plus
//!   the invariant that makes the cast lossless.
//! * **no-alloc-in-loop** — no `Buffer::new` / `Buffer::from_slice`
//!   inside `for`/`while`/`loop` bodies
//!   (host code included, `#[cfg(test)]` modules excluded). The paper's
//!   Figure 1 non-kernel overhead is exactly this pattern at runtime
//!   scale: an allocation inside a timestep loop pays the allocator and
//!   faults in fresh pages every turn, and keeps the loop off the
//!   recorded-graph fast path. Hoist the allocation above the loop;
//!   suppress with `// lint:allow(no-alloc-in-loop)` plus the reason it
//!   cannot move.
//! * **staging-copy** — no whole-array copy to stage run-scoped host
//!   data (library code under `crates/core/src`, `#[cfg(test)]` modules
//!   excluded): `Buffer::from_slice(&<temporary>)` where the borrowed
//!   expression is a call, a `.collect()` or a `vec![…]` that dies
//!   right after the copy, and `.write_from(&<expr>.to_vec())`, which
//!   copies twice. Same Figure-1 rationale as `no-alloc-in-loop`: on a
//!   bandwidth-bound run these copies cost more than the kernels.
//!   Adopt the temporary with `Buffer::from_vec`, or borrow the source
//!   through `Buffer::read`. Suppress with
//!   `// lint:allow(staging-copy)` plus the reason the source has to
//!   outlive the copy (a stream stage whose buffers persist).
//! * **graph-empty-bindings** — every launch states its bindings: no
//!   literal `&[]` binding list in a launch call or its `submit(..)`,
//!   and no direct launch through the unbound queue shortcuts
//!   (`q.parallel_for(name, range, f)`, `try_parallel_for`,
//!   `nd_range`) instead of `q.submit(&[..]).parallel_for(..)`. An
//!   empty binding list hides the launch's data accesses from
//!   record-time dependency analysis (the launch serializes against
//!   every other one), from the sanitizer's binding check, and from an
//!   integrity queue, which refuses it. Declare the accesses (`reads` /
//!   `writes` / `reads_writes`), or justify a genuinely access-free
//!   body with `// lint:allow(graph-empty-bindings)`.
//! * **no-process-exit** — no `std::process::exit` in library code
//!   (every `crates/*/src` file outside a `src/bin/` directory). The
//!   benchmark service runs many tenants' jobs in one process; a
//!   library path that exits tears down every tenant at once and skips
//!   the one-verdict-per-job accounting. Library code reports through
//!   typed errors / verdicts; only binary front-ends choose exit codes.
//! * **stream-unbounded-queue** — no unbounded accumulation inside
//!   stream loop bodies. A streaming runner's defining obligation is
//!   bounded memory over an unbounded window sequence: growth calls
//!   (`.push` / `.push_back` / `.push_front` / `.extend` / `.append`)
//!   on a collection that *outlives* the loop turn graceful
//!   backpressure into an unbounded queue that only fails at OOM.
//!   Applies to every `*stream*.rs` library source; collections the
//!   loop body declares itself (reset each iteration) are bounded and
//!   allowed. Suppress with `// lint:allow(stream-unbounded-queue)`
//!   plus the bound that caps the collection.
//! * **no-unchecked-access** — no unchecked buffer access
//!   (`get_unchecked`, raw `.elem(` accessor calls) in library code
//!   outside `hetero-rt/src/buffer.rs`, whose checked accessors run the
//!   bounds check before they dereference. Any other call site would
//!   bypass the check. Suppress with
//!   `// lint:allow(no-unchecked-access)` plus the invariant
//!   that discharges the bounds obligation.
//! * **unused-pub** — a `pub fn` / `struct` / `enum` / `const` /
//!   `trait` / `type` / `static` in library code (`crates/*/src`
//!   outside `src/bin/`) whose name appears nowhere outside its own file
//!   and test code (`#[cfg(test)]` modules, `tests/` directories). The
//!   readers are every crate's sources, bins and benches, and
//!   `e2e/src`. A type is also named by the signature or field of
//!   another item of its file, since its values reach callers by
//!   inference; its own `impl` headers do not count. Altis-SYCL's own
//!   clean-up removed "non-required features" after migration; this
//!   rule keeps the runtime's surface equal to what the suite runs.
//!   Delete the item or demote it to `pub(crate)`; suppress with
//!   `// lint:allow(unused-pub)` naming the paper section it reproduces
//!   or the test it is the oracle of.
//!
//! A violation is suppressed by a `// lint:allow(rule-name)` comment on
//! the same line or the line above — used where an application
//! deliberately models host-mediated data (with a justification
//! comment).
//!
//! Exits nonzero when any violation is found, printing `file:line`.

use std::path::{Path, PathBuf};

/// Launch entry points whose closure arguments are kernel bodies.
const LAUNCH_CALLS: [&str; 4] =
    ["parallel_for", "try_parallel_for", "nd_range", "submit_concurrent"];

#[derive(Debug)]
struct Violation {
    file: PathBuf,
    line: usize,
    /// Byte offset of the match in the file — the dedup key. Two
    /// distinct violations of one rule can share a line (`a[i] + b[j]`),
    /// so line-keyed dedup used to swallow real findings; only the
    /// offset identifies a *site*.
    offset: usize,
    rule: &'static str,
    snippet: String,
}

fn main() -> std::process::ExitCode {
    // Anchor on the bench crate's manifest dir so the binary works from
    // any cwd.
    let core_src = Path::new(env!("CARGO_MANIFEST_DIR")).join("../core/src");
    let mut files = Vec::new();
    collect_rs_files(&core_src, &mut files);
    files.sort();
    if files.is_empty() {
        eprintln!("lint: no sources under {}", core_src.display());
        return std::process::ExitCode::from(2);
    }

    let mut violations = Vec::new();
    let mut scanned_closures = 0usize;
    for f in &files {
        let text = std::fs::read_to_string(f).expect("readable source");
        scanned_closures += lint_file(f, &text, &mut violations);
    }

    // no-process-exit runs workspace-wide: every crate's library
    // sources, bin/ front-ends excluded.
    let crates_root = Path::new(env!("CARGO_MANIFEST_DIR")).parent().expect("crates/ directory");
    let mut lib_files = Vec::new();
    if let Ok(entries) = std::fs::read_dir(crates_root) {
        for e in entries.flatten() {
            let src = e.path().join("src");
            if src.is_dir() {
                collect_rs_files(&src, &mut lib_files);
            }
        }
    }
    lib_files.retain(|p| !p.components().any(|c| c.as_os_str() == "bin"));
    lib_files.sort();
    for f in &lib_files {
        let text = std::fs::read_to_string(f).expect("readable source");
        lint_no_process_exit(f, &text, &mut violations);
        lint_no_unchecked(f, &text, &mut violations);
        lint_stream_unbounded(f, &text, &mut violations);
    }
    // unused-pub reads the whole repository: every crate directory
    // (sources, bins, benches) and the e2e package.
    let mut readers = Vec::new();
    collect_rs_files(crates_root, &mut readers);
    let repo = crates_root.parent().expect("repository root");
    collect_rs_files(&repo.join("e2e/src"), &mut readers);
    readers.sort();
    let sources: Vec<(PathBuf, String)> = readers
        .into_iter()
        .map(|p| {
            let text = std::fs::read_to_string(&p).expect("readable source");
            (p, text)
        })
        .collect();
    lint_unused_pub(&sources, &mut violations);
    // Launch calls can nest; report each *site* once. The key is the
    // byte offset, not the line: one line can hold two distinct
    // same-rule violations, and collapsing those hid real findings.
    violations.sort_by(|a, b| (&a.file, a.offset, a.rule).cmp(&(&b.file, b.offset, b.rule)));
    violations.dedup_by(|a, b| a.file == b.file && a.offset == b.offset && a.rule == b.rule);

    for v in &violations {
        println!(
            "{}:{}: [{}] {}",
            v.file.display(),
            v.line,
            v.rule,
            v.snippet.trim()
        );
    }
    println!(
        "lint: {} kernel files, {scanned_closures} kernel closures, {} library files, {} violation(s)",
        files.len(),
        lib_files.len(),
        violations.len()
    );
    if violations.is_empty() {
        std::process::ExitCode::SUCCESS
    } else {
        std::process::ExitCode::FAILURE
    }
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else { return };
    for e in entries.flatten() {
        let p = e.path();
        if p.is_dir() {
            collect_rs_files(&p, out);
        } else if p.extension().is_some_and(|x| x == "rs") {
            out.push(p);
        }
    }
}

/// Blank out comments and string literals (preserving length and
/// newlines) so the structural scan never trips over brackets or
/// keywords inside them. `lint:allow` comments are collected first.
fn mask_source(text: &str) -> (Vec<u8>, Vec<(usize, String)>) {
    let bytes = text.as_bytes();
    let mut masked = bytes.to_vec();
    let mut allows = Vec::new();
    let mut i = 0;
    let mut line = 1usize;
    while i < bytes.len() {
        match bytes[i] {
            b'\n' => {
                line += 1;
                i += 1;
            }
            b'/' if bytes.get(i + 1) == Some(&b'/') => {
                let start = i;
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
                let comment = &text[start..i];
                if let Some(rest) = comment.split("lint:allow(").nth(1) {
                    if let Some(rule) = rest.split(')').next() {
                        allows.push((line, rule.trim().to_string()));
                    }
                }
                masked[start..i].fill(b' ');
            }
            b'/' if bytes.get(i + 1) == Some(&b'*') => {
                let start = i;
                i += 2;
                let mut depth = 1;
                while i < bytes.len() && depth > 0 {
                    if bytes[i] == b'\n' {
                        line += 1;
                        masked[i] = b'\n';
                        i += 1;
                    } else if bytes[i] == b'*' && bytes.get(i + 1) == Some(&b'/') {
                        depth -= 1;
                        i += 2;
                    } else if bytes[i] == b'/' && bytes.get(i + 1) == Some(&b'*') {
                        depth += 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
                let end = i.min(masked.len());
                for b in &mut masked[start..end] {
                    if *b != b'\n' {
                        *b = b' ';
                    }
                }
            }
            b'"' => {
                let start = i;
                i += 1;
                while i < bytes.len() {
                    if bytes[i] == b'\\' {
                        // A `\` that continues the literal on the next
                        // line still ends this one.
                        if bytes.get(i + 1) == Some(&b'\n') {
                            line += 1;
                        }
                        i += 2;
                    } else if bytes[i] == b'"' {
                        i += 1;
                        break;
                    } else {
                        if bytes[i] == b'\n' {
                            line += 1;
                        }
                        i += 1;
                    }
                }
                let end = i.min(masked.len());
                for b in &mut masked[start..end] {
                    if *b != b'\n' {
                        *b = b' ';
                    }
                }
            }
            b'\'' => {
                // Char literal or lifetime. A char literal closes within
                // a few bytes; a lifetime has no closing quote.
                let close = bytes[i + 1..].iter().take(4).position(|&b| b == b'\'');
                if let Some(off) = close {
                    let end = i + 1 + off + 1;
                    let stop = end.min(masked.len());
                    for b in &mut masked[i..stop] {
                        if *b != b'\n' {
                            *b = b' ';
                        }
                    }
                    i = end;
                } else {
                    i += 1;
                }
            }
            _ => i += 1,
        }
    }
    (masked, allows)
}

fn line_of(text: &str, offset: usize) -> usize {
    text.as_bytes()[..offset].iter().filter(|&&b| b == b'\n').count() + 1
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Find the offset of the matching close bracket for the open bracket at
/// `open` (which must be one of `(`, `[`, `{`) in `masked`.
fn matching_bracket(masked: &[u8], open: usize) -> Option<usize> {
    let (o, c) = match masked[open] {
        b'(' => (b'(', b')'),
        b'[' => (b'[', b']'),
        b'{' => (b'{', b'}'),
        _ => return None,
    };
    let mut depth = 0usize;
    for (i, &b) in masked.iter().enumerate().skip(open) {
        if b == o {
            depth += 1;
        } else if b == c {
            depth -= 1;
            if depth == 0 {
                return Some(i);
            }
        }
    }
    None
}

/// Spans (start, end) of closure bodies found inside `masked[lo..hi]`.
/// A closure is `|params| body`, where body is a braced block or an
/// expression running to the next `,` / closing bracket at this depth.
fn closure_bodies(masked: &[u8], lo: usize, hi: usize) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut i = lo;
    while i < hi {
        match masked[i] {
            b'(' | b'[' | b'{' => {
                // Descend so nested argument lists are scanned too.
                let Some(close) = matching_bracket(masked, i) else { break };
                out.extend(closure_bodies(masked, i + 1, close.min(hi)));
                i = close + 1;
            }
            b'|' => {
                // `||` is either an empty param list or boolean-or; only
                // a closure when the previous token cannot end a value.
                let mut p = i;
                while p > lo && masked[p - 1].is_ascii_whitespace() {
                    p -= 1;
                }
                let prev = if p > lo { masked[p - 1] } else { b'(' };
                let prev_is_move = p >= 4 + lo && &masked[p - 4..p] == b"move";
                if !(prev == b'(' || prev == b',' || prev == b'=' || prev_is_move) {
                    i += 1;
                    continue;
                }
                // Param list: up to the next unnested `|`.
                let params_end = if masked.get(i + 1) == Some(&b'|') {
                    i + 1
                } else {
                    let mut j = i + 1;
                    let mut depth = 0usize;
                    loop {
                        if j >= hi {
                            break;
                        }
                        match masked[j] {
                            b'(' | b'[' | b'<' => depth += 1,
                            b')' | b']' | b'>' => depth = depth.saturating_sub(1),
                            b'|' if depth == 0 => break,
                            _ => {}
                        }
                        j += 1;
                    }
                    j
                };
                let mut b = params_end + 1;
                while b < hi && masked[b].is_ascii_whitespace() {
                    b += 1;
                }
                if b >= hi {
                    break;
                }
                let body_end = if masked[b] == b'{' {
                    matching_bracket(masked, b).map(|e| e + 1).unwrap_or(hi).min(hi)
                } else {
                    // Expression body: to the `,` or close bracket at
                    // this nesting level.
                    let mut j = b;
                    let mut depth = 0usize;
                    while j < hi {
                        match masked[j] {
                            b'(' | b'[' | b'{' => depth += 1,
                            b')' | b']' | b'}' if depth == 0 => break,
                            b')' | b']' | b'}' => depth -= 1,
                            b',' if depth == 0 => break,
                            _ => {}
                        }
                        j += 1;
                    }
                    j
                };
                out.push((b, body_end));
                i = body_end.max(i + 1);
            }
            _ => i += 1,
        }
    }
    out
}

/// Identifiers the closure body declares itself (`let` bindings and
/// `for` loop variables): indexing those is local scratch, not captured
/// device data.
fn local_declarations(masked: &[u8], lo: usize, hi: usize) -> Vec<String> {
    let mut out = Vec::new();
    let text = &masked[lo..hi];
    let mut i = 0;
    while i + 4 < text.len() {
        let is_decl_kw = text[i..].starts_with(b"let ") || text[i..].starts_with(b"for ");
        let kw_len = if is_decl_kw { 4 } else { 0 };
        let at_boundary = i == 0 || !is_ident_byte(text[i - 1]);
        if kw_len > 0 && at_boundary {
            let mut j = i + kw_len;
            // Skip `mut`, `(`, and leading ws; collect every identifier
            // in the pattern up to `=` / `in` terminator.
            let pat_end = text[j..]
                .windows(1)
                .position(|w| w[0] == b'=' || w[0] == b';' || w[0] == b'{')
                .map(|p| j + p)
                .unwrap_or(text.len());
            while j < pat_end {
                if is_ident_byte(text[j]) {
                    let s = j;
                    while j < pat_end && is_ident_byte(text[j]) {
                        j += 1;
                    }
                    let ident = String::from_utf8_lossy(&text[s..j]).to_string();
                    if ident != "mut" && ident != "in" && !ident.chars().next().is_some_and(|c| c.is_ascii_digit()) {
                        out.push(ident);
                    }
                } else {
                    j += 1;
                }
            }
            i = pat_end;
        } else {
            i += 1;
        }
    }
    out
}

fn allowed(allows: &[(usize, String)], rule: &str, line: usize) -> bool {
    allows
        .iter()
        .any(|(l, r)| r == rule && (*l == line || *l + 1 == line))
}

/// Apply all rules to one closure body; returns violations found.
#[allow(clippy::too_many_arguments)]
fn lint_body(
    file: &Path,
    text: &str,
    masked: &[u8],
    allows: &[(usize, String)],
    lo: usize,
    hi: usize,
    violations: &mut Vec<Violation>,
) {
    let locals = local_declarations(masked, lo, hi);
    let body = &masked[lo..hi];
    let mut push = |rule: &'static str, off: usize| {
        let line = line_of(text, lo + off);
        if allowed(allows, rule, line) {
            return;
        }
        let snippet = text.lines().nth(line - 1).unwrap_or("").to_string();
        violations.push(Violation {
            file: file.to_path_buf(),
            line,
            offset: lo + off,
            rule,
            snippet,
        });
    };

    // no-unwrap: `.unwrap()` / `.expect(`.
    for pat in [&b".unwrap()"[..], &b".expect("[..]] {
        let mut from = 0;
        while let Some(p) = find(body, pat, from) {
            push("no-unwrap", p);
            from = p + pat.len();
        }
    }

    // no-hashmap.
    let mut from = 0;
    while let Some(p) = find(body, b"HashMap", from) {
        let boundary = p == 0 || !is_ident_byte(body[p - 1]);
        if boundary {
            push("no-hashmap", p);
        }
        from = p + 7;
    }

    // no-std-time.
    for pat in [&b"std::time"[..], &b"Instant::now"[..]] {
        let mut from = 0;
        while let Some(p) = find(body, pat, from) {
            push("no-std-time", p);
            from = p + pat.len();
        }
    }

    // as-cast: narrowing integer `as` casts truncate silently — in a
    // kernel a silently wrapped index or accumulator is a silent-data-
    // corruption source of the program's own making, indistinguishable
    // from a memory fault. Use a checked conversion, or justify the
    // invariant with `// lint:allow(as-cast)`.
    for pat in [
        &b"as u8"[..],
        &b"as u16"[..],
        &b"as u32"[..],
        &b"as i8"[..],
        &b"as i16"[..],
        &b"as i32"[..],
    ] {
        let mut from = 0;
        while let Some(p) = find(body, pat, from) {
            from = p + pat.len();
            let pre_ok = p == 0 || !is_ident_byte(body[p - 1]);
            let end = p + pat.len();
            let post_ok = end >= body.len() || !is_ident_byte(body[end]);
            if pre_ok && post_ok {
                push("as-cast", p);
            }
        }
    }

    // no-raw-index: `ident[` on captured (non-local) identifiers.
    let mut i = 1;
    while i < body.len() {
        if body[i] == b'[' && is_ident_byte(body[i - 1]) {
            let mut s = i;
            while s > 0 && is_ident_byte(body[s - 1]) {
                s -= 1;
            }
            let ident = String::from_utf8_lossy(&body[s..i]).to_string();
            let preceded_by_field = s > 0 && body[s - 1] == b'.';
            let is_macro_ish = ident.chars().next().is_some_and(|c| c.is_ascii_digit());
            if !preceded_by_field
                && !is_macro_ish
                && !locals.contains(&ident)
                && !ident.is_empty()
            {
                push("no-raw-index", i);
            }
        }
        i += 1;
    }
}

/// Spans of `for`/`while`/`loop` bodies anywhere in the file. `for` is
/// only a loop when ` in ` appears before its block (`impl Trait for
/// Type` has none); nested loops are covered by their outermost span.
fn loop_body_spans(masked: &[u8]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < masked.len() {
        let (kw, needs_in): (&[u8], bool) = if masked[i..].starts_with(b"for ") {
            (b"for", true)
        } else if masked[i..].starts_with(b"while ") {
            (b"while", false)
        } else if masked[i..].starts_with(b"loop") {
            (b"loop", false)
        } else {
            i += 1;
            continue;
        };
        let pre_ok = i == 0 || !is_ident_byte(masked[i - 1]);
        let after = i + kw.len();
        let post_ok = after >= masked.len() || !is_ident_byte(masked[after]);
        if !pre_ok || !post_ok {
            i += 1;
            continue;
        }
        // Header: from the keyword to its block's `{` at bracket depth 0.
        let mut j = after;
        let mut depth = 0usize;
        let mut saw_in = false;
        while j < masked.len() {
            match masked[j] {
                b'(' | b'[' => depth += 1,
                b')' | b']' => depth = depth.saturating_sub(1),
                b'{' if depth == 0 => break,
                b'i' if depth == 0
                    && masked[j..].starts_with(b"in")
                    && masked[j - 1].is_ascii_whitespace()
                    && masked.get(j + 2).is_some_and(|&b| b.is_ascii_whitespace()) =>
                {
                    saw_in = true;
                }
                b';' => break, // not a loop header after all
                _ => {}
            }
            j += 1;
        }
        if j >= masked.len() || masked[j] != b'{' || (needs_in && !saw_in) {
            i = after;
            continue;
        }
        let Some(close) = matching_bracket(masked, j) else {
            i = after;
            continue;
        };
        out.push((j + 1, close));
        i = after;
    }
    out
}

/// Spans of blocks annotated `#[cfg(test)]` (test modules): allocation
/// churn in tests is harmless and not worth an allow comment each.
fn cfg_test_spans(masked: &[u8]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(p) = find(masked, b"#[cfg(test)]", from) {
        from = p + 12;
        let mut j = from;
        while j < masked.len() && masked[j] != b'{' {
            j += 1;
        }
        if j < masked.len() {
            if let Some(close) = matching_bracket(masked, j) {
                out.push((j, close));
                from = close;
            }
        }
    }
    out
}

/// Associated-function paths on type prefix `ty` (`b"Buffer::"`), with
/// or without a turbofish (`Buffer::<f32>::new`): the offset of the
/// path, the function name, and the offset just past the name.
fn assoc_calls<'a>(masked: &'a [u8], ty: &[u8]) -> Vec<(usize, &'a [u8], usize)> {
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(p) = find(masked, ty, from) {
        from = p + ty.len();
        if p > 0 && is_ident_byte(masked[p - 1]) {
            continue;
        }
        let mut j = p + ty.len();
        if masked.get(j) == Some(&b'<') {
            let mut depth = 0usize;
            while j < masked.len() {
                match masked[j] {
                    b'<' => depth += 1,
                    b'>' => {
                        depth -= 1;
                        if depth == 0 {
                            j += 1;
                            break;
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
            if !masked[j..].starts_with(b"::") {
                continue;
            }
            j += 2;
        }
        let s = j;
        while j < masked.len() && is_ident_byte(masked[j]) {
            j += 1;
        }
        out.push((p, &masked[s..j], j));
    }
    out
}

/// The `no-alloc-in-loop` rule: runtime allocation calls inside loop
/// bodies, file-wide (host code is where the timestep loops live).
fn lint_allocs_in_loops(
    file: &Path,
    text: &str,
    masked: &[u8],
    allows: &[(usize, String)],
    violations: &mut Vec<Violation>,
) {
    let loops = loop_body_spans(masked);
    if loops.is_empty() {
        return;
    }
    let tests = cfg_test_spans(masked);
    let sites = assoc_calls(masked, b"Buffer::")
        .into_iter()
        .filter(|(_, meth, _)| *meth == b"new" || *meth == b"from_slice")
        .map(|(p, _, _)| p);

    for p in sites {
        let in_loop = loops.iter().any(|&(lo, hi)| p >= lo && p < hi);
        let in_test = tests.iter().any(|&(lo, hi)| p >= lo && p < hi);
        if !in_loop || in_test {
            continue;
        }
        let line = line_of(text, p);
        if allowed(allows, "no-alloc-in-loop", line) {
            continue;
        }
        let snippet = text.lines().nth(line - 1).unwrap_or("").to_string();
        violations.push(Violation {
            file: file.to_path_buf(),
            line,
            offset: p,
            rule: "no-alloc-in-loop",
            snippet,
        });
    }
}

/// The `staging-copy` rule: a buffer staged by copying a host array that
/// dies right after (`Buffer::from_slice(&<temporary>)`), or refilled
/// through a read-back copy (`.write_from(&<expr>.to_vec())`).
fn lint_staging_copies(
    file: &Path,
    text: &str,
    masked: &[u8],
    allows: &[(usize, String)],
    violations: &mut Vec<Violation>,
) {
    // The argument of the call whose `(` is at or after `from`, trimmed,
    // when it is a borrow: the borrowed expression.
    let borrowed_arg = |from: usize| -> Option<&[u8]> {
        let open = from + masked[from..].iter().position(|b| !b.is_ascii_whitespace())?;
        if masked[open] != b'(' {
            return None;
        }
        let close = matching_bracket(masked, open)?;
        let arg = masked[open + 1..close].trim_ascii();
        let arg = arg.strip_suffix(b",").unwrap_or(arg);
        arg.strip_prefix(b"&").map(<[u8]>::trim_ascii)
    };
    // A call or `.collect()` ends in `)`; `vec![…]` is the other shape.
    let temporary =
        |e: &[u8]| e.ends_with(b")") || (e.starts_with(b"vec!") && e.ends_with(b"]"));
    let mut sites: Vec<usize> = Vec::new();
    for (p, meth, end) in assoc_calls(masked, b"Buffer::") {
        if meth == b"from_slice" && borrowed_arg(end).is_some_and(temporary) {
            sites.push(p);
        }
    }
    let mut from = 0;
    while let Some(p) = find(masked, b".write_from", from) {
        from = p + b".write_from".len();
        if borrowed_arg(from).is_some_and(|e| e.ends_with(b".to_vec()")) {
            sites.push(p);
        }
    }

    let tests = cfg_test_spans(masked);
    for p in sites {
        let line = line_of(text, p);
        let in_test = tests.iter().any(|&(lo, hi)| p >= lo && p < hi);
        if in_test || allowed(allows, "staging-copy", line) {
            continue;
        }
        let snippet = text.lines().nth(line - 1).unwrap_or("").to_string();
        violations.push(Violation {
            file: file.to_path_buf(),
            line,
            offset: p,
            rule: "staging-copy",
            snippet,
        });
    }
}

/// The `no-process-exit` rule: `process::exit` anywhere in a library
/// source file (bin/ front-ends are excluded by the caller). Scans the
/// masked text so mentions in comments, docs, and strings don't trip.
fn lint_no_process_exit(
    file: &Path,
    text: &str,
    violations: &mut Vec<Violation>,
) {
    let (masked, allows) = mask_source(text);
    let mut from = 0;
    while let Some(p) = find(&masked, b"process::exit", from) {
        from = p + 13;
        let line = line_of(text, p);
        if allowed(&allows, "no-process-exit", line) {
            continue;
        }
        let snippet = text.lines().nth(line - 1).unwrap_or("").to_string();
        violations.push(Violation {
            file: file.to_path_buf(),
            line,
            offset: p,
            rule: "no-process-exit",
            snippet,
        });
    }
}

/// The `no-unchecked-access` rule: unchecked buffer access
/// primitives (`get_unchecked`, raw `.elem(` calls) anywhere in library
/// code. Only `hetero-rt/src/buffer.rs` may touch them: its checked
/// accessors run the bounds check *before* dereferencing.
fn lint_no_unchecked(file: &Path, text: &str, violations: &mut Vec<Violation>) {
    let path = file.to_string_lossy().replace('\\', "/");
    if path.ends_with("hetero-rt/src/buffer.rs") {
        return;
    }
    let (masked, allows) = mask_source(text);
    for pat in [&b"get_unchecked"[..], &b".elem("[..]] {
        let mut from = 0;
        while let Some(p) = find(&masked, pat, from) {
            from = p + pat.len();
            // Whole-word: `get_unchecked` must not be part of a longer
            // identifier on the left (`.elem(` is self-delimiting), and
            // `get_unchecked_mut` should still match.
            if p > 0 && pat[0] != b'.' && is_ident_byte(masked[p - 1]) {
                continue;
            }
            let line = line_of(text, p);
            if allowed(&allows, "no-unchecked-access", line) {
                continue;
            }
            let snippet = text.lines().nth(line - 1).unwrap_or("").to_string();
            violations.push(Violation {
                file: file.to_path_buf(),
                line,
                offset: p,
                rule: "no-unchecked-access",
                snippet,
            });
        }
    }
}

/// The `stream-unbounded-queue` rule: growth calls on long-lived
/// collections inside loop bodies of the streaming sources
/// (`*stream*.rs` library files). A stream loop runs over an unbounded
/// window sequence, so any collection it grows that it did not itself
/// declare (and therefore reset each iteration) is an unbounded queue
/// — backpressure must shed or block, never accumulate.
fn lint_stream_unbounded(file: &Path, text: &str, violations: &mut Vec<Violation>) {
    let path = file.to_string_lossy().replace('\\', "/");
    let name = path.rsplit('/').next().unwrap_or("");
    if !name.contains("stream") {
        return;
    }
    let (masked, allows) = mask_source(text);
    let loops = loop_body_spans(&masked);
    if loops.is_empty() {
        return;
    }
    let tests = cfg_test_spans(&masked);
    for pat in [
        &b".push("[..],
        &b".push_back("[..],
        &b".push_front("[..],
        &b".extend("[..],
        &b".append("[..],
    ] {
        let mut from = 0;
        while let Some(p) = find(&masked, pat, from) {
            from = p + pat.len();
            let enclosing: Vec<(usize, usize)> = loops
                .iter()
                .copied()
                .filter(|&(lo, hi)| p >= lo && p < hi)
                .collect();
            if enclosing.is_empty() || tests.iter().any(|&(lo, hi)| p >= lo && p < hi) {
                continue;
            }
            // Receiver identifier right before the `.`; a collection
            // declared inside any enclosing loop body is reset per
            // iteration and therefore bounded.
            let mut s = p;
            while s > 0 && is_ident_byte(masked[s - 1]) {
                s -= 1;
            }
            let ident = String::from_utf8_lossy(&masked[s..p]).to_string();
            if !ident.is_empty()
                && enclosing
                    .iter()
                    .any(|&(lo, hi)| local_declarations(&masked, lo, hi).contains(&ident))
            {
                continue;
            }
            let line = line_of(text, p);
            if allowed(&allows, "stream-unbounded-queue", line) {
                continue;
            }
            let snippet = text.lines().nth(line - 1).unwrap_or("").to_string();
            violations.push(Violation {
                file: file.to_path_buf(),
                line,
                offset: p,
                rule: "stream-unbounded-queue",
                snippet,
            });
        }
    }
}

/// Identifiers (offset, name) of `masked` outside the `skip` spans.
fn idents_outside<'a>(masked: &'a [u8], skip: &[(usize, usize)]) -> Vec<(usize, &'a str)> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < masked.len() {
        if !is_ident_byte(masked[i]) {
            i += 1;
            continue;
        }
        let s = i;
        while i < masked.len() && is_ident_byte(masked[i]) {
            i += 1;
        }
        if !skip.iter().any(|&(lo, hi)| s >= lo && s < hi) {
            // Identifier bytes are ASCII, so the slice is valid UTF-8.
            out.push((s, std::str::from_utf8(&masked[s..i]).unwrap_or("")));
        }
    }
    out
}

/// The `unused-pub` rule over `sources` (path, text): a `pub` item of a
/// library file (`crates/…/src/…`, no `bin` component) that no *other*
/// file names outside test code. Files under a `tests` directory define and
/// name nothing; everything else — bins, benches, `e2e/src` —
/// is a reader, and `e2e/src` (pinned, not ours to edit) with its test
/// modules.
fn lint_unused_pub(sources: &[(PathBuf, String)], violations: &mut Vec<Violation>) {
    const ITEM_KINDS: [&str; 7] = ["fn", "struct", "enum", "const", "trait", "type", "static"];
    const MANY: usize = usize::MAX;
    let has = |p: &Path, dir: &str| p.components().any(|c| c.as_os_str() == dir);
    let masked: Vec<_> = sources
        .iter()
        .map(|(p, text)| if has(p, "tests") { (Vec::new(), Vec::new()) } else { mask_source(text) })
        .collect();
    let idents: Vec<Vec<(usize, &str)>> = sources
        .iter()
        .zip(&masked)
        .map(|((p, _), (m, _))| {
            let skip = if has(p, "crates") { cfg_test_spans(m) } else { Vec::new() };
            idents_outside(m, &skip)
        })
        .collect();
    // name -> the one file naming it outside test code, or MANY.
    let mut named: std::collections::HashMap<&str, usize> = std::collections::HashMap::new();
    for (file, ids) in idents.iter().enumerate() {
        for &(_, name) in ids {
            let first = named.entry(name).or_insert(file);
            if *first != file {
                *first = MANY;
            }
        }
    }
    for (file, (path, text)) in sources.iter().enumerate() {
        if !(has(path, "crates") && has(path, "src")) || has(path, "bin") {
            continue;
        }
        let (bytes, allows) = &masked[file];
        let ids = &idents[file];
        for (k, &(off, word)) in ids.iter().enumerate() {
            // `pub ` exactly: `pub(crate)` and `pub(super)` are not public.
            if word != "pub" || bytes.get(off + 3) != Some(&b' ') {
                continue;
            }
            let (Some(&(_, kind)), Some(&(_, name))) = (ids.get(k + 1), ids.get(k + 2)) else {
                continue;
            };
            if !ITEM_KINDS.contains(&kind) || named.get(name) != Some(&file) {
                continue;
            }
            // A type's values reach callers by inference, through the
            // signature or a field of another item of its file: those
            // mentions count, its `impl` headers do not.
            let line_text = |o: usize| text.lines().nth(line_of(text, o) - 1).unwrap_or("");
            let is_type = !matches!(kind, "fn" | "const" | "static");
            if is_type
                && ids.iter().enumerate().any(|(i, &(o, w))| {
                    w == name && i != k + 2 && !line_text(o).trim_start().starts_with("impl")
                })
            {
                continue;
            }
            let line = line_of(text, off);
            if allowed(allows, "unused-pub", line) {
                continue;
            }
            let snippet = line_text(off).to_string();
            violations.push(Violation { file: path.clone(), line, offset: off, rule: "unused-pub", snippet });
        }
    }
}

fn find(hay: &[u8], needle: &[u8], from: usize) -> Option<usize> {
    if from >= hay.len() {
        return None;
    }
    hay[from..]
        .windows(needle.len())
        .position(|w| w == needle)
        .map(|p| p + from)
}

/// The argument span of the `submit(..)` call a method call at `p` is
/// made on (`q.submit(&[..]).parallel_for(..)`), if it is made on one.
fn submit_receiver(masked: &[u8], p: usize) -> Option<(usize, usize)> {
    let back = |mut i: usize| {
        while i > 0 && masked[i - 1].is_ascii_whitespace() {
            i -= 1;
        }
        i
    };
    let dot = back(p);
    if dot == 0 || masked[dot - 1] != b'.' {
        return None;
    }
    let close = back(dot - 1).checked_sub(1)?;
    if masked[close] != b')' {
        return None;
    }
    let mut depth = 0usize;
    let open = (0..=close).rev().find(|&i| {
        match masked[i] {
            b')' => depth += 1,
            b'(' => depth -= 1,
            _ => {}
        }
        depth == 0
    })?;
    let name = masked[..open].iter().rev().take_while(|&&b| is_ident_byte(b)).count();
    (&masked[open - name..open] == b"submit").then_some((open + 1, close))
}

/// The comma-separated arguments of an argument list, each with its
/// leading whitespace trimmed.
fn top_level_args(args: &[u8]) -> impl Iterator<Item = &[u8]> {
    let mut depth = 0i32;
    args.split(move |&b| {
        match b {
            b'(' | b'[' | b'{' => depth += 1,
            b')' | b']' | b'}' => depth -= 1,
            _ => {}
        }
        b == b',' && depth == 0
    })
    .map(|a| &a[a.iter().take_while(|b| b.is_ascii_whitespace()).count()..])
}

/// Lint one file; returns how many kernel closures were scanned.
fn lint_file(file: &Path, text: &str, violations: &mut Vec<Violation>) -> usize {
    let (masked, allows) = mask_source(text);
    let mut scanned = 0usize;
    for call in LAUNCH_CALLS {
        let pat = call.as_bytes();
        let mut from = 0;
        while let Some(p) = find(&masked, pat, from) {
            from = p + pat.len();
            // Whole-word match directly followed (modulo ws) by `(`.
            let pre_ok = p == 0 || !is_ident_byte(masked[p - 1]);
            let mut q = p + pat.len();
            while q < masked.len() && masked[q].is_ascii_whitespace() {
                q += 1;
            }
            if !pre_ok || q >= masked.len() || masked[q] != b'(' {
                continue;
            }
            let Some(close) = matching_bracket(&masked, q) else { continue };
            // graph-empty-bindings: a launch states its accesses through
            // the `submit(..)` it is called on, or as an argument.
            let submit = submit_receiver(&masked, p);
            let mut empty = Vec::new();
            for (lo, hi) in [Some((q + 1, close)), submit].into_iter().flatten() {
                let args = &masked[lo..hi];
                let mut a = 0;
                while let Some(amp) = find(args, b"&[", a) {
                    a = amp + 2;
                    let mut j = amp + 2;
                    while j < args.len() && args[j].is_ascii_whitespace() {
                        j += 1;
                    }
                    if args.get(j) == Some(&b']') {
                        empty.push(lo + amp);
                    }
                }
            }
            let method = masked[..p].iter().rev().find(|b| !b.is_ascii_whitespace()) == Some(&b'.');
            let listed = top_level_args(&masked[q + 1..close]).any(|a| a.starts_with(b"&["));
            let stated = submit.is_some() || listed;
            if method && call != "submit_concurrent" && !stated {
                empty.push(p);
            }
            for offset in empty {
                let line = line_of(text, offset);
                if !allowed(&allows, "graph-empty-bindings", line) {
                    let snippet = text.lines().nth(line - 1).unwrap_or("").to_string();
                    violations.push(Violation {
                        file: file.to_path_buf(),
                        line,
                        offset,
                        rule: "graph-empty-bindings",
                        snippet,
                    });
                }
            }
            let bodies = closure_bodies(&masked, q + 1, close);
            scanned += bodies.len();
            for (lo, hi) in bodies {
                lint_body(file, text, &masked, &allows, lo, hi, violations);
            }
        }
    }
    // Kernels bound to a name before any launch call sees them, and
    // lane bodies (`lanes::Body::at`), which a kernel runs through
    // `lanes::sweep`: the braces that follow the closure head, or the
    // method's signature.
    for (head, signature) in [(&b": Item|"[..], false), (&b"fn at<const W: usize>("[..], true)] {
        let mut from = 0;
        while let Some(p) = find(&masked, head, from) {
            from = p + head.len();
            let mut b = from;
            while b < masked.len()
                && (masked[b].is_ascii_whitespace()
                    || (signature && !matches!(masked[b], b'{' | b';')))
            {
                b += 1;
            }
            if masked.get(b) == Some(&b'{') {
                if let Some(end) = matching_bracket(&masked, b) {
                    scanned += 1;
                    lint_body(file, text, &masked, &allows, b, end + 1, violations);
                }
            }
        }
    }
    lint_allocs_in_loops(file, text, &masked, &allows, violations);
    lint_staging_copies(file, text, &masked, &allows, violations);
    scanned
}

#[cfg(test)]
mod tests {
    use super::*;

    fn staging(src: &str) -> Vec<(usize, String)> {
        let mut v = Vec::new();
        lint_file(Path::new("app/mod.rs"), src, &mut v);
        v.retain(|x| x.rule == "staging-copy");
        v.into_iter().map(|x| (x.line, x.snippet.trim().to_string())).collect()
    }

    fn fired(src: &str) -> Vec<(usize, &'static str)> {
        let mut v = Vec::new();
        lint_file(Path::new("app/mod.rs"), src, &mut v);
        let mut fired: Vec<_> = v.iter().map(|x| (x.line, x.rule)).collect();
        fired.sort_unstable();
        fired
    }

    #[test]
    fn a_lane_body_is_a_kernel_body() {
        let src = "trait Body {\n\
            fn at<const W: usize>(&self, x: usize);\n\
            }\n\
            impl Body for Flags {\n\
            fn at<const W: usize>(&self, x: usize) {\n\
            let v = LUT[x];\n\
            self.out.set_lanes(x, self.src.get_lanes::<W>(x).unwrap());\n\
            }\n\
            }\n";
        assert_eq!(lint_file(Path::new("app/mod.rs"), src, &mut Vec::new()), 1);
        assert_eq!(fired(src), vec![(6, "no-raw-index"), (7, "no-unwrap")]);
    }

    #[test]
    fn an_unwrap_inside_each_launch_call_fires() {
        let src = "fn run(q: &Queue, g: &mut GraphBuilder, b: &[u32]) {\n\
            q.submit(&[writes(&o)]).parallel_for(\"a\", r, move |it| f(it).unwrap());\n\
            q.submit(&[writes(&o)]).try_parallel_for(\"b\", r, move |it| f(it).unwrap());\n\
            g.nd_range(\"c\", nd, &[writes(&o)], move |ctx| f(ctx).unwrap());\n\
            q.submit_concurrent(\"d\", vec![Box::new(move || f().unwrap())]);\n\
            let host = b.first().unwrap();\n\
            }\n";
        assert_eq!(lint_file(Path::new("app/mod.rs"), src, &mut Vec::new()), LAUNCH_CALLS.len());
        assert_eq!(fired(src), (2..=5).map(|l| (l, "no-unwrap")).collect::<Vec<_>>());
    }

    #[test]
    fn a_launch_that_states_no_bindings_fires_unless_allowed() {
        let src = "fn run(q: &Queue, g: &mut GraphBuilder) {\n\
            q.parallel_for(\"shortcut\", r, move |it| v.set(it.gid(0), 1));\n\
            q.submit(&[]).try_parallel_for(\"empty\", r, move |it| v.set(it.gid(0), 1));\n\
            g.nd_range(\"recorded\", nd, &[], move |ctx| f(ctx));\n\
            q.submit(&[writes(&o)])\n\
                .nd_range(\"bound\", nd, move |ctx| f(ctx));\n\
            g.parallel_for(\"listed\", r, &[reads(&i), writes(&o)], move |it| f(it));\n\
            let k = KernelBuilder::nd_range(\"descriptor\", 64);\n\
            // lint:allow(graph-empty-bindings) the probe touches one fresh buffer\n\
            q.nd_range(\"probe\", nd, move |ctx| f(ctx));\n\
            }\n";
        let mut fired = fired(src);
        fired.retain(|f| f.1 == "graph-empty-bindings");
        assert_eq!(fired, (2..=4).map(|l| (l, "graph-empty-bindings")).collect::<Vec<_>>());
    }

    #[test]
    fn an_allocation_in_a_loop_fires_unless_allowed() {
        let src = "fn run(n: usize) {\n\
            let scratch = Buffer::<f32>::new(n);\n\
            for step in 0..n {\n\
            let partials = Buffer::<f32>::new(n);\n\
            // lint:allow(no-alloc-in-loop) one buffer per output frame\n\
            let frame = Buffer::from_slice(&frames[step]);\n\
            }\n\
            }\n";
        assert_eq!(fired(src), vec![(4, "no-alloc-in-loop")]);
    }

    #[test]
    fn unchecked_access_is_audited_in_every_file_but_buffer_rs() {
        let src = "fn peek(v: &GlobalView<u32>, s: &[u32]) -> u32 {\n\
            let a = v.elem(3).read();\n\
            let b = *s.get_unchecked(3);\n\
            // lint:allow(no-unchecked-access) i < len checked by the caller\n\
            let c = *s.get_unchecked_mut(2);\n\
            a + b + c\n\
            }\n";
        let fired = |file: &str| {
            let mut v = Vec::new();
            lint_no_unchecked(Path::new(file), src, &mut v);
            v.into_iter().map(|x| x.line).collect::<Vec<_>>()
        };
        assert_eq!(fired("crates/hetero-rt/src/buffer.rs"), vec![]);
        // No second audited file: what used to be the elision module is
        // checked like any other.
        for file in ["crates/hetero-rt/src/elide.rs", "crates/core/src/srad/mod.rs"] {
            let mut lines = fired(file);
            lines.sort_unstable();
            assert_eq!(lines, vec![2, 3], "{file}");
        }
    }

    fn unused_pub(sources: &[(&str, &str)]) -> Vec<(String, usize)> {
        let sources: Vec<(PathBuf, String)> =
            sources.iter().map(|(p, t)| (PathBuf::from(p), t.to_string())).collect();
        let mut v = Vec::new();
        lint_unused_pub(&sources, &mut v);
        v.into_iter().map(|x| (x.file.display().to_string(), x.line)).collect()
    }

    const LIB: &str = "pub fn used_by_app() {}\n\
        pub fn used_by_e2e() {}\n\
        pub fn only_tested() {}\n\
        // lint:allow(unused-pub) paper §3.2: kept as a model of the finding\n\
        pub fn annotated() {}\n\
        pub(crate) fn internal() {}\n\
        pub struct Reached { pub x: u32 }\n\
        pub fn makes() -> Reached { Reached { x: 1 } }\n\
        pub struct Orphan;\n\
        impl Orphan {}\n\
        #[cfg(test)]\nmod tests {\nfn t() { super::only_tested(); let _ = super::Orphan; }\n}\n";

    #[test]
    fn unused_pub_flags_what_only_its_own_file_and_tests_name() {
        let fired = unused_pub(&[
            ("crates/rt/src/lib.rs", LIB),
            ("crates/core/src/app.rs", "fn run() { rt::used_by_app(); rt::makes(); }"),
            ("e2e/src/main.rs", "#[cfg(test)]\nmod tests {\nfn t() { rt::used_by_e2e(); }\n}\n"),
            ("crates/rt/tests/it.rs", "fn t() { rt::only_tested(); rt::annotated(); }"),
        ]);
        // `only_tested` (line 3) and `Orphan` (line 9): named by the
        // file's own test module, a `tests/` directory and an `impl`
        // header only. `Reached` is named by `makes`'s signature.
        assert_eq!(fired, vec![("crates/rt/src/lib.rs".to_string(), 3), ("crates/rt/src/lib.rs".to_string(), 9)]);
    }

    #[test]
    fn an_allow_below_a_continued_string_literal_still_applies() {
        let lib = "pub fn reason() -> &'static str {\n\
            \"stream ended: no verified recovery \\\n\
            for a failed window\"\n\
            }\n\
            // lint:allow(unused-pub) named by an integration test only\n\
            pub fn tenant_ledger() {}\n";
        let fired = unused_pub(&[
            ("crates/rt/src/lib.rs", lib),
            ("crates/core/src/app.rs", "fn run() { rt::reason(); }"),
        ]);
        assert_eq!(fired, vec![]);
    }

    #[test]
    fn unused_pub_reads_bins_but_does_not_hold_them_to_the_rule() {
        let bin = "pub fn helper_of_the_bin() {}\nfn main() { rt::only_the_bin_calls(); }";
        let fired = unused_pub(&[
            ("crates/rt/src/lib.rs", "pub fn only_the_bin_calls() {}"),
            ("crates/bench/src/bin/tool.rs", bin),
        ]);
        assert_eq!(fired, vec![]);
    }

    #[test]
    fn staging_copy_fires_on_copied_temporaries() {
        let src = "fn run() {\n\
            let a = Buffer::from_slice(&generate_image(p));\n\
            let b = Buffer::<u32>::from_slice(\n&recs.iter().map(|r| r.value).collect::<Vec<_>>(),\n);\n\
            let c = Buffer::from_slice(&vec![0.25f32; n]);\n\
            xs.write_from(&nxs.to_vec());\n\
            }\n";
        let lines: Vec<usize> = staging(src).into_iter().map(|(l, _)| l).collect();
        assert_eq!(lines, vec![2, 3, 6, 7]);
    }

    #[test]
    fn staging_copy_allows_borrows_of_data_that_lives_on() {
        // A named array, a field, a sub-slice, a fixed-size literal, a
        // read-back that is kept, and anything inside a test module.
        let src = "fn run() {\n\
            let a = Buffer::from_slice(&points);\n\
            let b = Buffer::from_slice(&input.normals);\n\
            let c = Buffer::from_slice(&points[..k * nf]);\n\
            q0.write_from(&[roi_q0(q, &img, n)]);\n\
            img.write_from(state);\n\
            let w = weights.to_vec();\n\
            let d = Buffer::from_vec(generate_image(p));\n\
            }\n\
            #[cfg(test)]\nmod tests {\nfn t() { let b = Buffer::from_slice(&generate_image(p)); }\n}\n";
        assert_eq!(staging(src), vec![]);
    }

    #[test]
    fn staging_copy_is_suppressed_by_an_allow_comment() {
        let src = "fn new() {\n\
            // lint:allow(staging-copy) the stage keeps `points` to restore from\n\
            let a = Buffer::from_slice(&load(p));\n\
            let b = Buffer::from_slice(&load(p)); // lint:allow(staging-copy) same\n\
            // lint:allow(no-alloc-in-loop) a different rule does not cover it\n\
            let c = Buffer::from_slice(&load(p));\n\
            }\n";
        let lines: Vec<usize> = staging(src).into_iter().map(|(l, _)| l).collect();
        assert_eq!(lines, vec![6]);
    }
}
