//! End-to-end tests of `loadsteal converge`: the geometric size sweep,
//! the grep-able slope line, and the `converge.*` gauges in the
//! `loadsteal.run.v1` metrics document.

use std::process::Command;

fn loadsteal(args: &[&str]) -> (bool, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_loadsteal"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// Pull one numeric gauge out of a metrics document. The document is a
/// single JSON object whose gauge map serializes as `"name":value`
/// pairs with plain (unescaped) metric names, so a key scan followed by
/// a strict `f64` parse of the value token is exact for this shape; a
/// missing key or a non-numeric value fails the test loudly.
fn gauge(doc: &str, name: &str) -> f64 {
    let key = format!("\"{name}\":");
    let at = doc
        .find(&key)
        .unwrap_or_else(|| panic!("gauge {name} missing from {doc}"));
    let rest = &doc[at + key.len()..];
    let end = rest
        .find([',', '}'])
        .unwrap_or_else(|| panic!("unterminated value for {name}"));
    rest[..end]
        .trim()
        .parse()
        .unwrap_or_else(|e| panic!("gauge {name} is not a number ({e}): {rest:.40}"))
}

const QUICK_SWEEP: &[&str] = &[
    "converge",
    "--model",
    "simple-ws",
    "--lambda",
    "0.9",
    "--n-min",
    "32",
    "--n-max",
    "128",
    "--runs",
    "2",
    "--horizon",
    "400",
    "--warmup",
    "40",
    "--seed",
    "3",
];

#[test]
fn converge_prints_a_grepable_slope_line() {
    let (ok, stdout, stderr) = loadsteal(QUICK_SWEEP);
    assert!(ok, "stderr: {stderr}");
    let line = stdout
        .lines()
        .find(|l| l.starts_with("convergence slope:"))
        .unwrap_or_else(|| panic!("no slope line in {stdout}"));
    // The CI smoke step greps exactly this shape.
    assert!(line.contains("R²"), "{line}");
    assert!(line.contains("3 sizes"), "{line}");
    assert!(line.contains("Θ(1/n)"), "{line}");
}

#[test]
fn converge_exports_slope_and_error_gauges() {
    let path = std::env::temp_dir().join("loadsteal_converge_cli_test.json");
    let path_s = path.to_str().unwrap();
    let mut args = QUICK_SWEEP.to_vec();
    args.extend_from_slice(&["--metrics-json", path_s]);
    let (ok, _, stderr) = loadsteal(&args);
    assert!(ok, "stderr: {stderr}");
    let doc = std::fs::read_to_string(&path).expect("metrics file written");
    let _ = std::fs::remove_file(&path);

    assert!(doc.contains("\"loadsteal.run.v1\""), "{doc}");
    // Grid 32 → 128 by doubling: three sizes, one error gauge each,
    // all positive (a finite system never sits exactly on the fixed
    // point).
    assert_eq!(gauge(&doc, "converge.sizes"), 3.0);
    for n in [32, 64, 128] {
        let e = gauge(&doc, &format!("converge.err_n{n}"));
        assert!(e > 0.0 && e.is_finite(), "err_n{n} = {e}");
    }
    // At this tiny protocol only the gross shape of the fit is stable:
    // the slope must be a finite negative number (errors shrink with
    // n), not its asymptotic value.
    let slope = gauge(&doc, "converge.slope");
    assert!(slope.is_finite() && slope < 0.0, "slope = {slope}");
    let r2 = gauge(&doc, "converge.r_squared");
    assert!((0.0..=1.0).contains(&r2), "R² = {r2}");
}

#[test]
fn converge_rejects_a_degenerate_grid() {
    let (ok, _, stderr) = loadsteal(&[
        "converge",
        "--model",
        "simple-ws",
        "--lambda",
        "0.9",
        "--n-min",
        "64",
        "--n-max",
        "64",
    ]);
    assert!(!ok);
    assert!(stderr.contains("grid"), "{stderr}");
}
