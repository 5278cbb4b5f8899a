//! End-to-end tests of the `axml` command-line tool.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::atomic::{AtomicUsize, Ordering};

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_axml"))
}

fn fixture_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("axml-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

const STAR_DSL: &str = r#"
element newspaper = title.date.(Get_Temp | temp).(TimeOut | exhibit*)
element title     = data
element date      = data
element temp      = data
element city      = data
element exhibit   = title.(Get_Date | date)
element performance = data
function Get_Temp : city -> temp
function TimeOut  : data -> (exhibit | performance)*
function Get_Date : title -> date
root newspaper
"#;

const STAR2_DSL: &str = r#"
element newspaper = title.date.temp.(TimeOut | exhibit*)
element title     = data
element date      = data
element temp      = data
element city      = data
element exhibit   = title.(Get_Date | date)
element performance = data
function Get_Temp : city -> temp
function TimeOut  : data -> (exhibit | performance)*
function Get_Date : title -> date
root newspaper
"#;

const STAR3_DSL: &str = r#"
element newspaper = title.date.temp.exhibit*
element title     = data
element date      = data
element temp      = data
element city      = data
element exhibit   = title.(Get_Date | date)
element performance = data
function Get_Temp : city -> temp
function TimeOut  : data -> (exhibit | performance)*
function Get_Date : title -> date
root newspaper
"#;

/// Writes `contents` to `path` through a rename. The tests of this binary
/// run in parallel and rewrite the same fixture files, so a plain write
/// could truncate a file another test's child process is reading.
fn write_atomic(path: &Path, contents: &str) {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let tmp = path.with_extension(format!("tmp{}", NEXT.fetch_add(1, Ordering::Relaxed)));
    std::fs::write(&tmp, contents).unwrap();
    std::fs::rename(&tmp, path).unwrap();
}

fn write_fixtures() -> (PathBuf, PathBuf, PathBuf, PathBuf) {
    let dir = fixture_dir();
    let star = dir.join("star.schema");
    let star2 = dir.join("star2.schema");
    let star3 = dir.join("star3.schema");
    let doc = dir.join("newspaper.xml");
    write_atomic(&star, STAR_DSL);
    write_atomic(&star2, STAR2_DSL);
    write_atomic(&star3, STAR3_DSL);
    write_atomic(
        &doc,
        &axml::schema::newspaper_example().to_xml().to_pretty_xml(),
    );
    (star, star2, star3, doc)
}

#[test]
fn validate_accepts_and_rejects() {
    let (star, star2, _star3, doc) = write_fixtures();
    let ok = bin()
        .args(["validate"])
        .arg(&star)
        .arg(&doc)
        .output()
        .unwrap();
    assert!(
        ok.status.success(),
        "{}",
        String::from_utf8_lossy(&ok.stderr)
    );
    assert!(String::from_utf8_lossy(&ok.stdout).contains("valid"));

    // Against (**) the intensional document is invalid.
    let bad = bin()
        .args(["validate"])
        .arg(&star2)
        .arg(&doc)
        .output()
        .unwrap();
    assert_eq!(bad.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&bad.stdout).contains("invalid"));

    // Streaming mode agrees.
    let ok = bin()
        .args(["validate"])
        .arg(&star)
        .arg(&doc)
        .arg("--stream")
        .output()
        .unwrap();
    assert!(ok.status.success());
}

#[test]
fn plan_reports_safety() {
    let (_star, star2, star3, doc) = write_fixtures();
    let safe = bin()
        .args(["plan"])
        .arg(&star2)
        .arg(&doc)
        .args(["--k", "1"])
        .output()
        .unwrap();
    assert!(safe.status.success());
    assert!(String::from_utf8_lossy(&safe.stdout).contains("safe: yes"));

    let unsafe_out = bin()
        .args(["plan"])
        .arg(&star3)
        .arg(&doc)
        .args(["--k", "1"])
        .output()
        .unwrap();
    assert_eq!(unsafe_out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&unsafe_out.stdout).contains("safe: no"));

    // Possible analysis still succeeds on (***).
    let possible = bin()
        .args(["plan"])
        .arg(&star3)
        .arg(&doc)
        .args(["--k", "1", "--possible"])
        .output()
        .unwrap();
    assert!(possible.status.success());
    assert!(String::from_utf8_lossy(&possible.stdout).contains("possible: yes"));
}

#[test]
fn rewrite_executes_against_simulated_services() {
    let (_star, star2, _star3, doc) = write_fixtures();
    let out = bin()
        .args(["rewrite"])
        .arg(&star2)
        .arg(&doc)
        .args(["--k", "1", "--execute", "42"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("<temp>"),
        "temperature materialized:\n{stdout}"
    );
    assert!(String::from_utf8_lossy(&out.stderr).contains("Get_Temp"));
}

#[test]
fn compat_matches_the_paper() {
    let (star, star2, star3, _doc) = write_fixtures();
    let ok = bin()
        .args(["compat"])
        .arg(&star)
        .arg(&star2)
        .args(["--root", "newspaper", "--k", "1"])
        .output()
        .unwrap();
    assert!(ok.status.success());
    assert!(String::from_utf8_lossy(&ok.stdout).contains("compatible"));

    let bad = bin()
        .args(["compat"])
        .arg(&star)
        .arg(&star3)
        .args(["--root", "newspaper", "--k", "1"])
        .output()
        .unwrap();
    assert_eq!(bad.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&bad.stdout).contains("incompatible"));
}

#[test]
fn serve_and_send_roundtrip() {
    use std::io::BufRead;

    let (star, star2, _star3, doc) = write_fixtures();
    // An extensional front page, valid against both (*) and (**).
    let dir = fixture_dir();
    let plain = dir.join("plain.xml");
    std::fs::write(
        &plain,
        "<newspaper><title>The Sun</title><date>04/10/2002</date><temp>15</temp></newspaper>",
    )
    .unwrap();

    // Daemon answering exactly three requests, then exiting gracefully.
    let mut daemon = bin()
        .args(["serve"])
        .arg(&star)
        .args(["127.0.0.1:0", "--requests", "3", "--name", "cli-peer"])
        .stdout(std::process::Stdio::piped())
        .spawn()
        .unwrap();
    let mut lines = std::io::BufReader::new(daemon.stdout.take().unwrap()).lines();
    let banner = lines.next().unwrap().unwrap();
    let addr = banner
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected banner: {banner}"))
        .to_owned();

    // 1: a conforming document is accepted and stored.
    let sent = bin()
        .args(["send"])
        .arg(&star)
        .arg(&addr)
        .arg(&plain)
        .args(["--name", "front"])
        .output()
        .unwrap();
    assert!(
        sent.status.success(),
        "{}{}",
        String::from_utf8_lossy(&sent.stdout),
        String::from_utf8_lossy(&sent.stderr)
    );
    assert!(String::from_utf8_lossy(&sent.stdout).contains("sent 'front'"));

    // 2: the same document in 16-byte chunks, with the same summary.
    let sent = bin()
        .args(["send"])
        .arg(&star)
        .arg(&addr)
        .arg(&plain)
        .args(["--name", "front-chunked", "--chunk-bytes", "16"])
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&sent.stdout);
    assert!(
        sent.status.success(),
        "{stdout}{}",
        String::from_utf8_lossy(&sent.stderr)
    );
    assert!(
        stdout.contains("sent 'front-chunked'")
            && stdout.contains("in 16-byte chunks")
            && stdout.contains("(0 calls materialized, 0 function nodes remain)"),
        "{stdout}"
    );

    // The intensional doc conforms to (*) client-side, but the
    // receiver enforces (*) too, so shipping it under the stricter (**)
    // exchange schema fails on the sender (no services to materialize
    // Get_Temp with).
    let refused = bin()
        .args(["send"])
        .arg(&star2)
        .arg(&addr)
        .arg(&doc)
        .output()
        .unwrap();
    assert_eq!(refused.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&refused.stdout).contains("send failed"));

    // The daemon needs one more answered request to reach its quota.
    let sent = bin()
        .args(["send"])
        .arg(&star)
        .arg(&addr)
        .arg(&plain)
        .output()
        .unwrap();
    assert!(sent.status.success());

    let status = daemon.wait().unwrap();
    assert!(status.success(), "daemon exit: {status:?}");
    let summary: Vec<String> = lines.map_while(Result::ok).collect();
    assert!(
        summary.iter().any(|l| l.contains("served 3 requests")),
        "{summary:?}"
    );
}

#[test]
fn bad_usage_and_missing_files() {
    let out = bin().output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    let out = bin()
        .args(["validate", "/nonexistent", "/nope"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let out = bin().args(["frobnicate"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
}

/// A daemon that runs out of file descriptors serves again once they
/// free up, on either network engine: it starts with a limit of 40
/// descriptors, 60 clients connect and hang up, and `axml stats` must
/// still get an answer.
#[test]
fn serve_recovers_from_descriptor_exhaustion() {
    use std::io::BufRead;

    let (star, ..) = write_fixtures();
    for io in ["threads", "poll"] {
        let mut daemon = Command::new("sh")
            .arg("-c")
            .arg(format!(
                "ulimit -n 40; exec \"$0\" serve \"$1\" 127.0.0.1:0 --io {io} --name fd-test"
            ))
            .arg(env!("CARGO_BIN_EXE_axml"))
            .arg(&star)
            .stdout(std::process::Stdio::piped())
            .spawn()
            .unwrap();
        let mut lines = std::io::BufReader::new(daemon.stdout.take().unwrap()).lines();
        let banner = lines.next().unwrap().unwrap();
        let addr = banner
            .strip_prefix("listening on ")
            .unwrap_or_else(|| panic!("unexpected banner: {banner}"))
            .to_owned();

        let held: Vec<std::net::TcpStream> = (0..60)
            .map(|_| std::net::TcpStream::connect(&addr).unwrap())
            .collect();
        // Let the daemon accept until its descriptors run out.
        std::thread::sleep(std::time::Duration::from_millis(500));
        drop(held);

        let stats = bin().args(["stats", &addr]).output().unwrap();
        let _ = daemon.kill();
        let _ = daemon.wait();
        assert!(
            stats.status.success(),
            "{io}: stats after descriptor exhaustion: {}",
            String::from_utf8_lossy(&stats.stderr)
        );
    }
}
