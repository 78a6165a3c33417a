//! Output-stream discipline, driven through the real binary: bad
//! input exits 2 with an `error:` line on stderr and nothing on
//! stdout, on every command; a successful report goes to stdout only.

use std::process::{Command, Output};

const BIN: &str = env!("CARGO_BIN_EXE_orion-power-cli");

fn run(line: &str) -> Output {
    Command::new(BIN)
        .args(line.split_whitespace())
        .output()
        .expect("spawn orion-power-cli")
}

#[test]
fn bad_input_exits_2_with_the_error_on_stderr_only() {
    for line in [
        "experiment run --bogus",
        "experiment explore x.toml --budget 0",
        "serve --workers 0",
        "simulate --bogus",
        "buffer --flits 4 --bits 32 --read-ports",
    ] {
        let out = run(line);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{line}: {stderr}");
        assert!(
            out.stdout.is_empty(),
            "{line}: stdout {:?}",
            String::from_utf8_lossy(&out.stdout)
        );
        assert!(stderr.starts_with("error:"), "{line}: {stderr}");
    }
}

#[test]
fn a_report_goes_to_stdout_only() {
    let out = run("buffer --flits 4 --bits 32");
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("FIFO buffer"), "{stdout}");
    assert!(
        out.stderr.is_empty(),
        "stderr {:?}",
        String::from_utf8_lossy(&out.stderr)
    );
}
