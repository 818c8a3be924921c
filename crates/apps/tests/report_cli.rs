//! `vqc-report` as a command: a journal line of another schema stops the
//! report with the line number and exit code 2, not an all-zero summary.

use std::process::Command;
use vqc_runtime::MetricsSnapshot;

#[test]
fn a_bad_journal_line_exits_2_naming_the_line_and_key() {
    let dir = std::env::temp_dir().join(format!("vqc-report-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("journal.jsonl");
    let good = MetricsSnapshot::default().to_json_line();
    let other_schema = good.replacen("\"submissions\":0,", "\"submitted\":0,", 1);
    std::fs::write(&path, format!("{good}\n{other_schema}\n")).unwrap();

    let output = Command::new(env!("CARGO_BIN_EXE_vqc-report"))
        .arg(&path)
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains(":2: missing key `submissions`"), "{stderr}");
    assert!(output.stdout.is_empty());

    std::fs::write(&path, format!("{good}\n")).unwrap();
    let output = Command::new(env!("CARGO_BIN_EXE_vqc-report"))
        .arg(&path)
        .output()
        .unwrap();
    assert!(output.status.success());
    assert!(String::from_utf8_lossy(&output.stdout).contains("0/0 submissions completed"));
    let _ = std::fs::remove_dir_all(&dir);
}
