//! Properties of the daemon's one request path.
//!
//! 1. A seeded protocol fuzzer in the `FaultPlan` style: hostile socket
//!    clients send malformed and truncated JSON, invalid UTF-8, an
//!    over-long line, a line in three chunks with pauses, duplicate ids,
//!    connect and idle, disconnect mid-line and stop reading — while a
//!    well-behaved client's `predict` replies stay bit-equal to
//!    `Solution::predict`. Every hostile case ends in a classified error
//!    line or a clean drop, the daemon's `rejected_bad` equals the
//!    malformed lines sent, a final `shutdown` is acknowledged and
//!    `serve_unix` returns. The whole run sits under a watchdog: a hang
//!    is a failure, not a stuck CI job.
//! 2. Delta persistence: a request journals what it computed, so after
//!    every request of a seeded predict/tune mix (panicking tunes
//!    included) the store holds exactly the keys the cache holds, and a
//!    restarted daemon warm-loads every one of them.

#![cfg(unix)]

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use yasksite::cli::stencil_by_name;
use yasksite::telemetry::json::{parse, Json};
use yasksite::{serve_unix, ServeConfig, ServeState, Solution, TrialRng, MAX_RECORD_BYTES};
use yasksite_arch::Machine;
use yasksite_engine::TuningParams;
use yasksite_grid::Fold;

fn tmp_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicU32 = AtomicU32::new(0);
    let d = std::env::temp_dir().join(format!(
        "yasksite-prop-serve-{tag}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).expect("scratch dir");
    d
}

/// The problems requests are about: stencil, domain, machine.
const PROBLEMS: [(&str, [usize; 3], &str); 3] = [
    ("heat-2d-r1", [64, 64, 1], "clx"),
    ("heat-3d-r1", [32, 16, 16], "rome"),
    ("star-3d-r2", [32, 16, 16], "clx"),
];

fn triple(t: [usize; 3]) -> String {
    format!("{}x{}x{}", t[0], t[1], t[2])
}

/// A seeded `predict` request on one of [`PROBLEMS`], plus what the
/// in-process model says about it.
struct Predict {
    line: String,
    mlups_bits: u64,
    seconds_bits: u64,
}

fn predict(id: &str, rng: &mut TrialRng) -> Predict {
    let (stencil, domain, machine) = PROBLEMS[(rng.next_u64() % 3) as usize];
    let cores = 1 + (rng.next_u64() % 4) as usize;
    let block = [
        domain[0],
        1 + (rng.next_u64() as usize) % domain[1],
        1 + (rng.next_u64() as usize) % domain[2],
    ];
    let m = Machine::by_short_name(machine).expect("built-in machine");
    let params = TuningParams::new(block, Fold::new(m.lanes(), 1, 1)).threads(cores);
    let sol = Solution::new(stencil_by_name(stencil).expect("known stencil"), domain, m);
    let perf = sol.predict(&params, cores);
    Predict {
        line: format!(
            r#"{{"id":"{id}","op":"predict","stencil":"{stencil}","domain":"{}","machine":"{machine}","cores":{cores},"block":"{}"}}"#,
            triple(domain),
            triple(block)
        ),
        mlups_bits: perf.mlups.to_bits(),
        seconds_bits: perf.seconds_per_sweep.to_bits(),
    }
}

fn tune_line(id: &str, problem: usize, cores: usize, extra: &str) -> String {
    let (stencil, domain, machine) = PROBLEMS[problem];
    format!(
        r#"{{"id":"{id}","op":"tune","stencil":"{stencil}","domain":"{}","machine":"{machine}","cores":{cores}{extra}}}"#,
        triple(domain)
    )
}

const NULL: Json = Json::Null;

fn field<'a>(j: &'a Json, key: &str) -> &'a Json {
    j.get(key).unwrap_or(&NULL)
}

fn uint(j: &Json, key: &str) -> u64 {
    field(j, key)
        .as_u64()
        .unwrap_or_else(|| panic!("'{key}' is not a count in {j:?}"))
}

fn is_ok(j: &Json) -> bool {
    field(j, "ok") == &Json::Bool(true)
}

fn assert_predict_matches(reply: &Json, id: &str, p: &Predict) {
    assert!(is_ok(reply), "{reply:?}");
    assert_eq!(field(reply, "id").as_str(), Some(id));
    let bits = |key: &str| field(reply, key).as_f64().map(f64::to_bits);
    assert_eq!(bits("mlups"), Some(p.mlups_bits), "{reply:?}");
    assert_eq!(bits("seconds_per_sweep"), Some(p.seconds_bits), "{reply:?}");
}

/// A socket client: one connection, replies read line by line.
struct Client {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
}

impl Client {
    fn connect(socket: &Path) -> Client {
        let stream = loop {
            match UnixStream::connect(socket) {
                Ok(stream) => break stream,
                Err(_) => std::thread::sleep(Duration::from_millis(5)),
            }
        };
        stream
            .set_read_timeout(Some(Duration::from_secs(20)))
            .expect("read timeout");
        Client {
            reader: BufReader::new(stream.try_clone().expect("clone")),
            writer: stream,
        }
    }

    fn send(&mut self, bytes: &[u8]) {
        self.writer.write_all(bytes).expect("the daemon is reading");
    }

    /// The next reply; `None` once the daemon has closed the connection.
    fn reply(&mut self) -> Option<Json> {
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(n) if n > 0 => Some(parse(&line).expect("every reply line is JSON")),
            _ => None,
        }
    }

    fn ask(&mut self, line: &str) -> Json {
        self.send(line.as_bytes());
        self.send(b"\n");
        self.reply().expect("a complete line is answered")
    }

    fn expect_bad_request(&mut self, line: &str) {
        let r = self.ask(line);
        assert_eq!(field(&r, "ok"), &Json::Bool(false), "{line}: {r:?}");
        assert_eq!(field(&r, "kind").as_str(), Some("bad_request"), "{r:?}");
    }
}

/// Complete lines the handler must refuse: broken JSON, truncated JSON,
/// JSON that is no request.
const MALFORMED: [&str; 6] = [
    "{nope",
    r#"{"id":"m","op":"predict","stencil":"heat-2d-r1","doma"#,
    r#"{"id":"m","op":"frobnicate"}"#,
    r#"{"id":"m"}"#,
    "[1,2,3]",
    r#"{"id":"m","op":"predict","stencil":"heat-2d-r1","domain":"64x64"}"#,
];

/// One hostile client's seeded sequence. Returns how many malformed
/// lines it made the daemon handle.
fn hostile(socket: &Path, seed: u64) -> usize {
    let mut rng = TrialRng::new(seed);
    let mut malformed = 0;
    let mut idlers = Vec::new();
    let mut c = Client::connect(socket);
    for step in 0..14 {
        match rng.next_u64() % 8 {
            0 => {
                c.expect_bad_request(MALFORMED[(rng.next_u64() % 6) as usize]);
                malformed += 1;
            }
            // Invalid UTF-8 is not the protocol: dropped, not answered.
            1 => {
                c.send(b"{\"id\":\"\xff\xfe\",\"op\":\"report\"}\n");
                assert!(c.reply().is_none(), "invalid UTF-8 ends the connection");
                c = Client::connect(socket);
            }
            // One byte over the cap and never a newline.
            2 => {
                c.send(&vec![b'a'; MAX_RECORD_BYTES + 1]);
                let r = c.reply().expect("the refusal is written");
                assert_eq!(field(&r, "kind").as_str(), Some("bad_request"), "{r:?}");
                assert!(c.reply().is_none(), "an over-long line ends the connection");
                c = Client::connect(socket);
            }
            // One line in three chunks; the pauses straddle the daemon's
            // read timeout or not, as the seed has it.
            3 => {
                let id = format!("c{step}");
                let p = predict(&id, &mut rng);
                let bytes = p.line.as_bytes();
                let a = 1 + (rng.next_u64() as usize) % (bytes.len() - 2);
                let b = a + 1 + (rng.next_u64() as usize) % (bytes.len() - a - 1);
                for chunk in [&bytes[..a], &bytes[a..b], &bytes[b..]] {
                    c.send(chunk);
                    std::thread::sleep(Duration::from_millis(rng.next_u64() % 130));
                }
                c.send(b"\n");
                let r = c.reply().expect("a chunked line is still one request");
                assert_predict_matches(&r, &id, &p);
            }
            // Two requests, one id, one write: two answers, in order.
            4 => {
                let (p, q) = (predict("dup", &mut rng), predict("dup", &mut rng));
                c.send(format!("{}\n{}\n", p.line, q.line).as_bytes());
                for expected in [&p, &q] {
                    let r = c.reply().expect("each duplicate is answered");
                    assert_predict_matches(&r, "dup", expected);
                }
            }
            5 => idlers.push(Client::connect(socket)),
            // Hang up mid-line: the daemon handles the last words as the
            // (malformed) request they are; nobody reads the refusal.
            6 => {
                c.send(br#"{"id":"half","op":"pre"#);
                c = Client::connect(socket);
                malformed += 1;
            }
            // Stop reading: a burst of requests, then hang up on the replies.
            _ => {
                for _ in 0..20 {
                    c.send(b"{\"id\":\"deaf\",\"op\":\"status\"}\n");
                }
                c = Client::connect(socket);
            }
        }
    }
    // The survivor and the idlers are still served at the end.
    for mut client in idlers.into_iter().chain([c]) {
        assert!(is_ok(&client.ask(r#"{"id":"bye","op":"report"}"#)));
    }
    malformed
}

fn well_behaved(socket: &Path, seed: u64) {
    let mut rng = TrialRng::new(seed);
    let mut c = Client::connect(socket);
    for i in 0..60 {
        let id = format!("g{i}");
        let p = predict(&id, &mut rng);
        assert_predict_matches(&c.ask(&p.line), &id, &p);
    }
}

/// Raises the daemon's shutdown flag when the scope that owns it unwinds,
/// so a failed assertion fails the test instead of hanging it.
struct Raise<'a>(&'a AtomicBool);

impl Drop for Raise<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Relaxed);
    }
}

fn fuzz(seed: u64) {
    let dir = tmp_dir("fuzz");
    let socket = dir.join("ys.sock");
    let config = ServeConfig {
        state_dir: Some(dir.join("state")),
        // Room for every hostile burst at once: no `overloaded` replies,
        // so `rejected_bad` is exact.
        queue_capacity: 512,
        ..ServeConfig::default()
    };
    let shutdown = AtomicBool::new(false);
    std::thread::scope(|s| {
        let daemon = s.spawn(|| serve_unix(config, &socket, &shutdown));
        let _raise = Raise(&shutdown);
        let hostiles: Vec<_> = (0..3)
            .map(|h| {
                let socket = &socket;
                s.spawn(move || hostile(socket, seed * 16 + h))
            })
            .collect();
        let good = s.spawn(|| well_behaved(&socket, seed));
        let malformed: usize = hostiles
            .into_iter()
            .map(|h| h.join().expect("hostile client"))
            .sum();
        good.join().expect("well-behaved client");

        // A line sent just before a hang-up may still be on its way to the
        // handler: the count converges on, and never passes, what was sent.
        let mut c = Client::connect(&socket);
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            let r = c.ask(r#"{"id":"r","op":"report"}"#);
            let bad = uint(&r, "rejected_bad") as usize;
            assert!(bad <= malformed, "{bad} refused, {malformed} sent");
            assert_eq!(uint(&r, "persist_errors"), 0);
            if bad == malformed {
                break;
            }
            assert!(Instant::now() < deadline, "{bad} refused, {malformed} sent");
            std::thread::sleep(Duration::from_millis(10));
        }
        let ack = c.ask(r#"{"id":"x","op":"shutdown"}"#);
        assert!(is_ok(&ack), "{ack:?}");
        let stats = daemon
            .join()
            .expect("daemon thread")
            .expect("serve_unix returns cleanly");
        assert_eq!(stats.rejected_bad, malformed);
        assert_eq!(stats.rejected_overload, 0);
        assert_eq!(stats.persist_errors, 0);
        assert_eq!(stats.degraded, 0);
    });
    assert!(!socket.exists(), "the socket file is removed on exit");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Runs `test` on its own thread and fails if it has not finished within
/// `limit`: a daemon that hangs must fail the suite, not stall it.
fn under_watchdog(limit: Duration, test: impl FnOnce() + Send + 'static) {
    let (done, finished) = mpsc::channel();
    let runner = std::thread::spawn(move || {
        test();
        let _ = done.send(());
    });
    match finished.recv_timeout(limit) {
        Ok(()) => runner.join().expect("runner finished"),
        Err(mpsc::RecvTimeoutError::Timeout) => panic!("still running after {limit:?}: a hang"),
        // The sender went away unsent: `test` panicked. Pass it on.
        Err(mpsc::RecvTimeoutError::Disconnected) => {
            std::panic::resume_unwind(runner.join().expect_err("runner panicked"))
        }
    }
}

#[test]
fn hostile_clients_end_in_classified_errors_or_clean_drops() {
    under_watchdog(Duration::from_secs(300), || {
        for seed in [1, 2, 3, 4] {
            fuzz(seed);
        }
    });
}

/// `report` after a request: the store holds exactly what the cache holds.
fn stored(state: &mut ServeState) -> u64 {
    let r = state.handle_line(r#"{"id":"r","op":"report"}"#).unwrap();
    let r = parse(&r).unwrap();
    assert_eq!(uint(&r, "persist_errors"), 0, "{r:?}");
    assert_eq!(
        uint(&r, "store_predictions"),
        uint(&r, "cache_entries"),
        "{r:?}"
    );
    uint(&r, "store_predictions")
}

#[test]
fn the_store_tracks_the_cache_request_by_request_and_a_restart_warm_loads_all_of_it() {
    const PANIC: &str = r#","faults":{"seed":7,"panic_prob":1.0}"#;
    for seed in [11, 12, 13] {
        let dir = tmp_dir("delta");
        let config = ServeConfig {
            state_dir: Some(dir.clone()),
            ..ServeConfig::default()
        };
        let mut state = ServeState::new(config.clone());
        let mut rng = TrialRng::new(seed);
        let mut degraded = 0;
        for i in 0..40 {
            let problem = (rng.next_u64() % 3) as usize;
            let cores = 1 + (rng.next_u64() % 2) as usize;
            let line = match (i, rng.next_u64() % 8) {
                // First of all, on an empty cache: a hybrid session ranks
                // every candidate (all misses), panics on its first
                // measurement and re-ranks analytically from the cache the
                // aborted attempt filled — zero misses of its own, and
                // every candidate still to be journaled.
                (0, _) | (_, 0) => tune_line(
                    "h",
                    problem,
                    cores,
                    &format!(r#","strategy":"hybrid"{PANIC}"#),
                ),
                (_, 1) => tune_line(
                    "e",
                    problem,
                    cores,
                    &format!(r#","strategy":"empirical"{PANIC}"#),
                ),
                (_, 2) => tune_line("a", problem, cores, ""),
                _ => predict(&format!("p{i}"), &mut rng).line,
            };
            let before = stored(&mut state);
            let r = parse(&state.handle_line(&line).unwrap()).unwrap();
            assert!(is_ok(&r), "{line}: {r:?}");
            let after = stored(&mut state);
            if field(&r, "op").as_str() == Some("tune") {
                assert_eq!(after - before, uint(&r, "persisted"), "{r:?}");
                degraded += usize::from(field(&r, "degraded") == &Json::Bool(true));
            } else {
                let miss = field(&r, "warm") == &Json::Bool(false);
                assert_eq!(after - before, u64::from(miss), "{r:?}");
            }
        }
        assert!(degraded > 0, "the mix includes panicking tunes");
        let total = stored(&mut state);
        state.finish();
        drop(state);

        // Every key belongs to one problem; tuning each problem once on
        // the reopened state warm-loads that problem's keys.
        let mut state = ServeState::new(config);
        let mut loaded = 0;
        for problem in 0..PROBLEMS.len() {
            let r = parse(&state.handle_line(&tune_line("w", problem, 1, "")).unwrap()).unwrap();
            assert!(is_ok(&r), "{r:?}");
            assert_eq!(uint(&r, "warm_stale"), 0, "{r:?}");
            loaded += uint(&r, "warm_loaded");
        }
        assert_eq!(loaded, total, "every journaled key came back");
        stored(&mut state);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
