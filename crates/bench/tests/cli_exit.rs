//! The `sioscope` exit-code contract, one row per case: `-h`/`--help`
//! is a clean exit 0, every usage error exits 2 with an `error:` line
//! (never a panic), and a reader that closes stdout early
//! (`sioscope repro | head`) is not a crash.

use std::process::{Command, Stdio};

const SUBCOMMANDS: [&str; 5] = ["repro", "campaign", "chaos", "characterize", "baseline"];

/// Usage errors, one per line: `arguments | text stderr must contain`.
/// Each exits 2.
const USAGE_ERRORS: &str = "
    | missing subcommand
bogus | unknown subcommand `bogus`
chaos --seeds 18446744073709551615 --tiers pfs | more cases than one soak can hold
chaos --start 18446744073709551615 --seeds 2 | overflows u64
chaos --seeds 0 | --seeds must be >= 1
baseline --compare OLD.json --bench X | only apply together
baseline --bench X --min-speedup 2 | gate a --compare
characterize --backend object t.siot | only apply to a --demo simulation
characterize --faults ion-crash t.siot | only apply to a --demo simulation
repro --resume | --resume requires --out
repro --out | --out requires a value
campaign run x.toml --jobs 1 | unknown argument `--jobs`
repro escat-table2 bogus-id | valid experiment ids: escat-table1, escat-fig1,
repro --sweeps=io_nodes,bogus | valid sweep ids: io_nodes,
chaos --tiers pfs,warp | valid tier ids: pfs, object, burst, stream
characterize --demo --backend warp t.siot | valid backend ids: pfs, object, burst";

#[test]
fn every_subcommand_exits_with_its_documented_code() {
    // (arguments, exit code, text the output must contain: stdout for
    // exit 0, stderr otherwise)
    let mut rows: Vec<(String, i32, String)> = USAGE_ERRORS
        .lines()
        .filter_map(|line| line.split_once(" | "))
        .map(|(args, expect)| (args.into(), 2, expect.into()))
        .collect();
    for flag in ["-h", "--help"] {
        rows.push((flag.into(), 0, "usage: sioscope <subcommand>".into()));
        for sub in SUBCOMMANDS {
            rows.push((
                format!("{sub} {flag}"),
                0,
                format!("usage: sioscope {sub} "),
            ));
        }
    }
    for sub in SUBCOMMANDS {
        rows.push((
            format!("{sub} --bogus"),
            2,
            "unknown argument `--bogus`".into(),
        ));
    }
    assert_eq!(rows.len(), 16 + 12 + 5);

    for (args, code, expect) in &rows {
        let out = Command::new(env!("CARGO_BIN_EXE_sioscope"))
            .args(args.split_whitespace())
            .output()
            .expect("spawn sioscope");
        let stdout = String::from_utf8_lossy(&out.stdout);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(*code), "`{args}`: {stderr}");
        if *code == 0 {
            assert!(stdout.starts_with(expect.as_str()), "`{args}`: {stdout}");
        } else {
            assert!(stderr.starts_with("error: "), "`{args}`: {stderr}");
            assert!(stderr.contains(expect.as_str()), "`{args}`: {stderr}");
        }
    }

    // A pipe whose read end is already closed: the first write fails
    // with EPIPE, exactly as when `head` exits early.
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    let status = Command::new(env!("CARGO_BIN_EXE_sioscope"))
        .args(["repro", "escat-table1"])
        .env("SIOSCOPE_SCALE", "smoke")
        .stdout(writer)
        .stderr(Stdio::null())
        .status()
        .expect("spawn sioscope repro");
    assert_eq!(status.code(), Some(0), "EPIPE is a clean exit, not a panic");
}
