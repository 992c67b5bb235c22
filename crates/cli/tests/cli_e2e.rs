//! End-to-end tests of the actual CLI binaries (spawned as processes).

use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

fn cmcli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_cmcli"))
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("cli-e2e-{}-{name}", std::process::id()))
}

#[test]
fn help_shows_usage_and_exits_zero() {
    let out = cmcli().arg("--help").output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("USAGE"));
    assert!(text.contains("export-cinder"));
}

#[test]
fn unknown_command_fails_with_usage_on_stderr() {
    let out = cmcli().arg("frobnicate").output().unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown command"));
    assert!(err.contains("USAGE"));
}

/// Run `cmcli serve` with `args`, which must make it fail before it
/// binds anything; returns its stderr. A serve that starts instead is
/// killed and fails the test rather than hanging it.
fn serve_rejects(args: &[&str]) -> String {
    let mut child = cmcli()
        .arg("serve")
        .args(args)
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let deadline = Instant::now() + Duration::from_secs(30);
    while child.try_wait().unwrap().is_none() {
        if Instant::now() > deadline {
            child.kill().unwrap();
            child.wait().unwrap();
            panic!("cmcli serve {args:?} started instead of failing");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    let out = child.wait_with_output().unwrap();
    assert!(!out.status.success(), "{args:?}");
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn serve_rejects_retired_flags_and_policies() {
    let err = serve_rejects(&["--port", "0", "--speculative-reads", "on"]);
    assert!(
        err.contains("unknown serve argument `--speculative-reads`"),
        "{err}"
    );
    assert!(err.contains("USAGE"), "{err}");
    for (flag, value) in [
        ("--keep-alive", "on"),
        ("--transport", "worker-pool"),
        ("--workers", "4"),
    ] {
        let err = serve_rejects(&["--port", "0", flag, value]);
        assert!(
            err.contains(&format!("unknown serve argument `{flag}`")),
            "{err}"
        );
    }
    let err = serve_rejects(&["--port", "0", "--snapshot-policy", "scoped"]);
    assert!(err.contains("unknown snapshot policy `scoped`"), "{err}");
}

#[test]
fn serve_rejects_a_misspelt_flag() {
    let err = serve_rejects(&["--port", "0", "--snapshot-polcy", "replica"]);
    assert!(
        err.contains("unknown serve argument `--snapshot-polcy`"),
        "{err}"
    );
}

#[test]
fn export_validate_contracts_pipeline() {
    let xmi = tmp("pipe.xmi");
    let out = cmcli().arg("export-cinder").arg(&xmi).output().unwrap();
    assert!(out.status.success(), "{out:?}");

    let validate = cmcli().arg("validate").arg(&xmi).output().unwrap();
    assert!(validate.status.success());
    let text = String::from_utf8_lossy(&validate.stdout);
    assert!(text.contains("well-formed"), "{text}");

    let contracts = cmcli().arg("contracts").arg(&xmi).output().unwrap();
    assert!(contracts.status.success());
    let text = String::from_utf8_lossy(&contracts.stdout);
    assert!(text.contains("PreCondition(DELETE"), "{text}");

    std::fs::remove_file(&xmi).unwrap();
}

#[test]
fn slice_and_codegen_via_binaries() {
    let xmi = tmp("s.xmi");
    let sliced = tmp("s-del.xmi");
    let outdir = tmp("s-out");
    assert!(cmcli()
        .arg("export-cinder")
        .arg(&xmi)
        .output()
        .unwrap()
        .status
        .success());
    let slice = cmcli()
        .args([
            "slice",
            xmi.to_str().unwrap(),
            "--method",
            "DELETE",
            sliced.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(slice.status.success(), "{slice:?}");
    assert!(String::from_utf8_lossy(&slice.stdout).contains("kept 3 of 11"));

    let uml2django = Command::new(env!("CARGO_BIN_EXE_uml2django"))
        .args(["GenDemo", xmi.to_str().unwrap()])
        .current_dir(std::env::temp_dir())
        .output()
        .unwrap();
    assert!(uml2django.status.success(), "{uml2django:?}");
    let gen_dir = std::env::temp_dir().join("gendemo");
    assert!(gen_dir.join("gendemo/views.py").exists());

    let codegen = cmcli()
        .args([
            "codegen",
            "CgDemo",
            xmi.to_str().unwrap(),
            outdir.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(codegen.status.success(), "{codegen:?}");
    assert!(outdir.join("cgdemo/urls.py").exists());

    std::fs::remove_file(&xmi).unwrap();
    std::fs::remove_file(&sliced).unwrap();
    std::fs::remove_dir_all(&outdir).unwrap();
    std::fs::remove_dir_all(&gen_dir).unwrap();
}

#[test]
fn table1_binary_output() {
    let out = cmcli().arg("table1").output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("proj_administrator"));
    assert!(text.contains("\"volume:delete\": \"role:admin\""));
}
