//! End-to-end wire-protocol tests: a real listener on an ephemeral port,
//! real TCP clients, concurrent sessions.

use std::sync::Arc;

use evopt_engine::{Database, DatabaseConfig, Durability};
use evopt_server::{serve, Client, Response, ServerConfig};

fn served(max_sessions: usize) -> (Arc<Database>, evopt_server::ServerHandle) {
    let db = Arc::new(Database::with_defaults());
    let handle = serve(
        Arc::clone(&db),
        "127.0.0.1:0",
        ServerConfig { max_sessions },
    )
    .unwrap();
    (db, handle)
}

fn expect_result(resp: Response) -> String {
    match resp {
        Response::Result(text) => text,
        other => panic!("expected a result, got {other:?}"),
    }
}

#[test]
fn statements_roundtrip_over_the_wire() {
    let (_db, handle) = served(4);
    let mut c = Client::connect(handle.addr()).unwrap();
    expect_result(
        c.request("CREATE TABLE t (id INT NOT NULL, name STRING)")
            .unwrap(),
    );
    let text = expect_result(
        c.request("INSERT INTO t VALUES (1, 'ada'), (2, 'grace')")
            .unwrap(),
    );
    assert!(text.contains("2 row(s) affected"), "{text}");
    let text = expect_result(c.request("SELECT name FROM t WHERE id = 2").unwrap());
    assert!(text.contains("grace"), "{text}");
    // Errors come back tagged as errors, connection stays usable.
    match c.request("SELECT * FROM missing").unwrap() {
        Response::Error(e) => assert!(e.contains("missing"), "{e}"),
        other => panic!("{other:?}"),
    }
    let text = expect_result(c.request("SELECT COUNT(*) FROM t").unwrap());
    assert!(text.contains('2'), "{text}");
}

#[test]
fn client_connections_disable_nagle() {
    let (_db, handle) = served(1);
    let mut c = Client::connect(handle.addr()).unwrap();
    assert!(c.nodelay().unwrap(), "TCP_NODELAY must be set on connect");
    expect_result(c.request("\\help").unwrap());
}

#[test]
fn writes_from_one_client_are_visible_to_another() {
    let (_db, handle) = served(4);
    let mut a = Client::connect(handle.addr()).unwrap();
    let mut b = Client::connect(handle.addr()).unwrap();
    expect_result(a.request("CREATE TABLE shared (x INT)").unwrap());
    expect_result(a.request("INSERT INTO shared VALUES (7)").unwrap());
    let text = expect_result(b.request("SELECT x FROM shared").unwrap());
    assert!(text.contains('7'), "{text}");
}

#[test]
fn concurrent_clients_all_get_correct_answers() {
    let (_db, handle) = served(8);
    let mut setup = Client::connect(handle.addr()).unwrap();
    expect_result(setup.request("CREATE TABLE n (v INT)").unwrap());
    expect_result(
        setup
            .request("INSERT INTO n VALUES (1), (2), (3), (4), (5)")
            .unwrap(),
    );
    let addr = handle.addr();
    let threads: Vec<_> = (0..4)
        .map(|_| {
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).unwrap();
                for _ in 0..10 {
                    let text = expect_result(c.request("SELECT COUNT(*) FROM n").unwrap());
                    assert!(text.contains('5'), "{text}");
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
}

#[test]
fn capacity_overflow_is_refused_with_bye() {
    let (_db, handle) = served(1);
    let mut first = Client::connect(handle.addr()).unwrap();
    // Ensure the first connection's slot is claimed before the second
    // connects.
    expect_result(first.request("\\help").unwrap());
    let mut second = Client::connect(handle.addr()).unwrap();
    match second.request("\\help") {
        Ok(Response::Bye(text)) => assert!(text.contains("capacity"), "{text}"),
        // The refused stream may already be closed by the time we write.
        Err(_) => {}
        Ok(other) => panic!("expected Bye, got {other:?}"),
    }
    // The first connection keeps working.
    match first.request("\\help").unwrap() {
        Response::Result(_) => {}
        other => panic!("{other:?}"),
    }
}

#[test]
fn meta_commands_work_over_the_wire() {
    let (_db, handle) = served(2);
    let mut c = Client::connect(handle.addr()).unwrap();
    expect_result(c.request("CREATE TABLE m (x INT)").unwrap());
    let text = expect_result(c.request("\\tables").unwrap());
    assert!(text.contains('m'), "{text}");
    let text = expect_result(c.request("\\strategy greedy").unwrap());
    assert!(text.contains("greedy"), "{text}");
    match c.request("\\q").unwrap() {
        Response::Bye(_) => {}
        other => panic!("{other:?}"),
    }
}

#[test]
fn metrics_frame_scrapes_prometheus_over_the_wire() {
    // A WAL-configured engine so the durability families carry real
    // observations, served over a real socket.
    let db = Arc::new(Database::new(DatabaseConfig {
        durability: Durability::Wal,
        ..Default::default()
    }));
    let handle = serve(Arc::clone(&db), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut c = Client::connect(handle.addr()).unwrap();
    expect_result(c.request("CREATE TABLE w (x INT NOT NULL)").unwrap());
    expect_result(c.request("INSERT INTO w VALUES (1), (2), (3)").unwrap());
    expect_result(c.request("SELECT COUNT(*) FROM w").unwrap());
    // The bare METRICS frame is the scrape entry point.
    let text = expect_result(c.request("METRICS").unwrap());
    for family in [
        // Server families lead the scrape.
        "evopt_server_active_sessions 1",
        "evopt_server_connections_total 1",
        "evopt_server_frames_total ",
        "evopt_server_bytes_in_total ",
        "evopt_server_bytes_out_total ",
        // Engine contention histograms over the wire.
        "evopt_commit_lock_wait_us_bucket{le=\"+Inf\"}",
        "evopt_wal_sync_wait_us_count ",
        "evopt_pool_miss_io_us_bucket",
        // Per-session series labeled with this connection's session.
        "evopt_statements_total{session=",
    ] {
        assert!(
            text.contains(family),
            "missing {family:?} in scrape:\n{text}"
        );
    }
    // The write ran on this connection: its commit was timed.
    let commit_count = text
        .lines()
        .find(|l| l.starts_with("evopt_commit_lock_wait_us_count "))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse::<u64>().ok())
        .expect("commit wait count in scrape");
    assert!(commit_count >= 2, "CREATE + INSERT both commit: {text}");
    // `\metrics` is the same scrape.
    let meta = expect_result(c.request("\\metrics").unwrap());
    assert!(meta.contains("evopt_server_frames_total "), "{meta}");
}

#[test]
fn refused_connections_are_counted() {
    let (_db, handle) = served(1);
    let mut first = Client::connect(handle.addr()).unwrap();
    expect_result(first.request("\\help").unwrap());
    let mut second = Client::connect(handle.addr()).unwrap();
    let _ = second.request("\\help"); // refused with Bye (or reset)
                                      // The refusal is counted on the server side regardless of what the
                                      // client managed to read.
    let mut seen = 0;
    for _ in 0..50 {
        seen = handle.metrics().connections_refused.get();
        if seen >= 1 {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    assert_eq!(seen, 1, "exactly one refused connection");
    assert_eq!(handle.metrics().connections.get(), 1);
}

#[test]
fn quit_frees_the_session_slot() {
    let (_db, handle) = served(1);
    let mut first = Client::connect(handle.addr()).unwrap();
    match first.request("\\q").unwrap() {
        Response::Bye(_) => {}
        other => panic!("{other:?}"),
    }
    // The slot is released once the handler exits; retry briefly.
    let mut ok = false;
    for _ in 0..50 {
        let mut c = match Client::connect(handle.addr()) {
            Ok(c) => c,
            Err(_) => continue,
        };
        match c.request("\\help") {
            Ok(Response::Result(_)) => {
                ok = true;
                break;
            }
            _ => std::thread::sleep(std::time::Duration::from_millis(20)),
        }
    }
    assert!(ok, "slot was never released after quit");
}

#[test]
fn top_waits_renders_contention_histograms_over_the_wire() {
    let (_db, handle) = served(4);
    let mut c = Client::connect(handle.addr()).unwrap();
    expect_result(c.request("CREATE TABLE w (x INT)").unwrap());
    for i in 0..5 {
        expect_result(c.request(&format!("INSERT INTO w VALUES ({i})")).unwrap());
    }
    expect_result(c.request("SELECT COUNT(*) FROM w").unwrap());

    // The meta command and the bare frame render identically.
    for query in ["\\top-waits", "TOPWAITS"] {
        let text = expect_result(c.request(query).unwrap());
        assert!(text.contains("family"), "{text}");
        for family in [
            "evopt_commit_lock_wait_us",
            "evopt_wal_sync_wait_us",
            "evopt_pool_miss_io_us",
            "evopt_pool_load_wait_us",
            "evopt_snapshot_acquire_us",
        ] {
            assert!(text.contains(family), "missing {family} in:\n{text}");
        }
        // Six writes took the commit lock, so that family has waits and
        // real p50/max bucket bounds (not the empty-histogram dash).
        let commit_row = text
            .lines()
            .find(|l| l.contains("evopt_commit_lock_wait_us"))
            .unwrap();
        let cols: Vec<&str> = commit_row.split_whitespace().collect();
        let waits: u64 = cols[1].parse().unwrap();
        assert!(waits >= 6, "expected >=6 commit-lock waits, got {waits}");
        assert_ne!(cols[3], "-", "p50 should be a bucket bound: {commit_row}");
        assert_ne!(cols[4], "-", "max should be a bucket bound: {commit_row}");
    }

    // Rows are sorted by total wait, descending.
    let text = expect_result(c.request("\\top-waits").unwrap());
    let totals: Vec<u64> = text
        .lines()
        .skip(1)
        .map(|l| l.split_whitespace().nth(2).unwrap().parse().unwrap())
        .collect();
    assert_eq!(totals.len(), 5);
    let mut sorted = totals.clone();
    sorted.sort_unstable_by(|a, b| b.cmp(a));
    assert_eq!(
        totals, sorted,
        "rows must be sorted by total_us desc:\n{text}"
    );
}
