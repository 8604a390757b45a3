// Repro: peer FIN mid-request on the event-loop front end.
use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;
use wdt_serve::{EventLoopServer, ModelRegistry, ServeConfig, ServeSchema};

#[test]
fn fin_mid_request_then_shutdown() {
    let dir = std::env::temp_dir().join("wdt-fin-leak-test");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let schema = ServeSchema::prediction();
    let w = schema.width();
    let x: Vec<Vec<f64>> =
        (0..150).map(|i| (0..w).map(|j| ((i * (j + 2)) % 19) as f64).collect()).collect();
    let y: Vec<f64> = x.iter().map(|r| 2.0 * r[0] + r[3] * r[3]).collect();
    let model = wdt_model::FittedModel::fit(
        &wdt_features::Dataset::new(schema.names().to_vec(), x, y),
        wdt_model::ModelKind::Gbdt,
        &wdt_model::FitConfig::default(),
    )
    .unwrap();
    std::fs::write(dir.join("v1.json"), model.to_json()).unwrap();
    let registry = Arc::new(ModelRegistry::open(dir, schema).unwrap());
    let cfg = ServeConfig { request_deadline: Duration::from_millis(400), ..Default::default() };
    let server = EventLoopServer::start(registry, cfg).unwrap();

    // Partial request, then close the socket entirely.
    let mut s = TcpStream::connect(server.addr()).unwrap();
    s.write_all(b"GET /healthz HTTP/1.1\r\nConn").unwrap();
    s.flush().unwrap();
    std::thread::sleep(Duration::from_millis(300)); // let the shard read it
    drop(s); // FIN

    std::thread::sleep(Duration::from_millis(600)); // past the deadline

    let (done_tx, done_rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        server.shutdown();
        let _ = done_tx.send(());
    });
    done_rx
        .recv_timeout(Duration::from_secs(5))
        .expect("shutdown hung: FIN-mid-request connection never reaped");
}
