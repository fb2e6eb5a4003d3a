//! Integration tests for the framed TCP boundary: round-trips over a
//! real socket, every admission error surfacing as its typed remote
//! image, concurrent clients, rate limiting across the wire, and
//! graceful drain on shutdown.

use std::time::Duration;

use ssam::core::device::{SsamConfig, SsamDevice};
use ssam::knn::binary::BinaryStore;
use ssam::knn::VectorStore;
use ssam::serve::net::{ClientError, NetClient, NetServer, RemoteError};
use ssam::serve::{OwnedQuery, QosConfig, Request, ServeConfig, Server, TenantId, TenantQos};

const DIMS: usize = 8;

fn lcg(x: &mut u64) -> u64 {
    *x = x
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *x
}

fn float_vec(x: &mut u64) -> Vec<f32> {
    (0..DIMS)
        .map(|_| ((lcg(x) >> 40) as i32 % 1000) as f32 / 500.0)
        .collect()
}

fn float_device(n: usize, seed: u64) -> SsamDevice {
    let mut store = VectorStore::with_capacity(DIMS, n);
    let mut x = seed | 1;
    for _ in 0..n {
        store.push(&float_vec(&mut x));
    }
    let mut dev = SsamDevice::new(SsamConfig::default());
    dev.load_vectors(&store);
    dev
}

fn quick_config() -> ServeConfig {
    ServeConfig {
        max_batch: 4,
        max_linger: Duration::from_millis(2),
        workers: 2,
        ..ServeConfig::default()
    }
}

#[test]
fn tcp_round_trip_matches_in_process_serving() {
    let mut reference = float_device(96, 7);
    let net = NetServer::bind(
        "127.0.0.1:0",
        Server::start(float_device(96, 7), quick_config()),
    )
    .expect("bind");
    let mut client = NetClient::connect(net.local_addr()).expect("connect");

    let mut x = 99u64;
    for _ in 0..8 {
        let q = float_vec(&mut x);
        let resp = client
            .query(&Request::new(OwnedQuery::Euclidean(q.clone()), 5))
            .expect("served over TCP");
        let serial = reference
            .query(&ssam::core::device::DeviceQuery::Euclidean(&q), 5)
            .expect("serial");
        assert_eq!(
            resp.neighbors, serial.neighbors,
            "wire transport changed results"
        );
        assert_eq!(resp.coverage, 1.0);
        assert!(resp.batch_size >= 1);
        assert!(resp.queue_seconds >= 0.0 && resp.service_seconds >= 0.0);
    }
    let stats = net.shutdown();
    assert_eq!(stats.served, 8);
    assert_eq!(stats.failed, 0);
}

#[test]
fn hamming_queries_serve_over_the_wire() {
    let mut store = BinaryStore::new(64);
    let mut x = 31u64;
    for _ in 0..48 {
        store.push(&[(lcg(&mut x) >> 16) as u32, (lcg(&mut x) >> 16) as u32]);
    }
    let mut dev = SsamDevice::new(SsamConfig::default());
    dev.load_binary(&store);
    let mut reference = dev.clone();

    let net = NetServer::bind("127.0.0.1:0", Server::start(dev, quick_config())).expect("bind");
    let mut client = NetClient::connect(net.local_addr()).expect("connect");
    let code = vec![(lcg(&mut x) >> 16) as u32, (lcg(&mut x) >> 16) as u32];
    let resp = client
        .query(&Request::new(OwnedQuery::Hamming(code.clone()), 6))
        .expect("served");
    let serial = reference
        .query(&ssam::core::device::DeviceQuery::Hamming(&code), 6)
        .expect("serial");
    assert_eq!(resp.neighbors, serial.neighbors);

    // A float query against the binary payload is the server-side
    // BadRequest path, typed across the wire.
    let err = client
        .query(&Request::new(OwnedQuery::Euclidean(vec![0.0; 2]), 4))
        .expect_err("float query against binary payload");
    assert!(
        matches!(err, ClientError::Remote(RemoteError::BadRequest(_))),
        "{err}"
    );
    net.shutdown();
}

#[test]
fn admission_errors_cross_the_wire_typed() {
    let net = NetServer::bind(
        "127.0.0.1:0",
        Server::start(float_device(48, 9), quick_config()),
    )
    .expect("bind");
    let mut client = NetClient::connect(net.local_addr()).expect("connect");

    // k = 0 → BadRequest.
    let err = client
        .query(&Request::new(OwnedQuery::Euclidean(vec![0.0; DIMS]), 0))
        .expect_err("k = 0");
    assert!(matches!(
        err,
        ClientError::Remote(RemoteError::BadRequest(_))
    ));

    // An immediately-expired deadline → DeadlineExceeded with the
    // overshoot reported.
    let mut x = 13u64;
    let err = client
        .query(
            &Request::new(OwnedQuery::Euclidean(float_vec(&mut x)), 4)
                .with_timeout(Duration::from_nanos(1)),
        )
        .expect_err("expired deadline");
    match err {
        ClientError::Remote(RemoteError::DeadlineExceeded { .. }) => {}
        other => panic!("expected DeadlineExceeded, got {other}"),
    }
    net.shutdown();
}

/// One frame asking for `k = u32::MAX` gets a typed `BadRequest` reply
/// instead of aborting the server process, and the same connection then
/// gets a correct answer.
#[test]
fn k_above_max_k_is_a_typed_error_over_the_wire() {
    let mut x = 43u64;
    let mut store = VectorStore::with_capacity(DIMS, 512);
    for _ in 0..512 {
        store.push(&float_vec(&mut x));
    }
    let mut device = SsamDevice::new(SsamConfig {
        fast_path: true,
        ..SsamConfig::default()
    });
    device.load_vectors(&store);
    let mut reference = device.clone();
    let net = NetServer::bind("127.0.0.1:0", Server::start(device, quick_config())).expect("bind");
    let mut client = NetClient::connect(net.local_addr()).expect("connect");
    let q = float_vec(&mut x);
    let err = client
        .query(&Request::new(
            OwnedQuery::Euclidean(q.clone()),
            u32::MAX as usize,
        ))
        .expect_err("k above MAX_K");
    assert!(
        matches!(err, ClientError::Remote(RemoteError::BadRequest(_))),
        "{err}"
    );
    let resp = client
        .query(&Request::new(OwnedQuery::Euclidean(q.clone()), 5))
        .expect("served after the rejection");
    let serial = reference
        .query(&ssam::core::device::DeviceQuery::Euclidean(&q), 5)
        .expect("serial");
    assert_eq!(resp.neighbors, serial.neighbors);
    let stats = net.shutdown();
    assert_eq!(stats.served, 1);
    assert_eq!(stats.failed, 0);
}

#[test]
fn rate_limit_rejects_over_the_wire() {
    let tenant = TenantId(3);
    let config = ServeConfig {
        qos: QosConfig::default().with_tenant(
            tenant,
            TenantQos {
                rate: Some(0.001), // refills a token every ~17 minutes
                burst: 2.0,
                ..TenantQos::default()
            },
        ),
        ..quick_config()
    };
    let net =
        NetServer::bind("127.0.0.1:0", Server::start(float_device(48, 11), config)).expect("bind");
    let mut client = NetClient::connect(net.local_addr()).expect("connect");
    let mut x = 17u64;
    // The bucket starts full at burst = 2: two admissions, then typed
    // rejection naming the throttled tenant.
    for _ in 0..2 {
        client
            .query(&Request::new(OwnedQuery::Euclidean(float_vec(&mut x)), 4).with_tenant(tenant))
            .expect("burst admits");
    }
    let err = client
        .query(&Request::new(OwnedQuery::Euclidean(float_vec(&mut x)), 4).with_tenant(tenant))
        .expect_err("bucket empty");
    match err {
        ClientError::Remote(RemoteError::RateLimited { tenant: t }) => assert_eq!(t, tenant),
        other => panic!("expected RateLimited, got {other}"),
    }
    // Another tenant is not throttled by tenant 3's empty bucket.
    client
        .query(&Request::new(OwnedQuery::Euclidean(float_vec(&mut x)), 4))
        .expect("unlimited tenant unaffected");
    let stats = net.shutdown();
    assert_eq!(stats.rejected_rate_limited, 1);
    assert_eq!(stats.served, 3);
}

#[test]
fn concurrent_clients_all_serve() {
    let net = NetServer::bind(
        "127.0.0.1:0",
        Server::start(float_device(96, 15), quick_config()),
    )
    .expect("bind");
    let addr = net.local_addr();
    let joins: Vec<_> = (0..4)
        .map(|c| {
            std::thread::spawn(move || {
                let mut client = NetClient::connect(addr).expect("connect");
                let mut x = 0x1000 + c as u64;
                (0..6)
                    .map(|_| {
                        client
                            .query(&Request::new(OwnedQuery::Euclidean(float_vec(&mut x)), 5))
                            .expect("served")
                            .neighbors
                            .len()
                    })
                    .sum::<usize>()
            })
        })
        .collect();
    for j in joins {
        assert_eq!(j.join().expect("client thread"), 30);
    }
    let stats = net.shutdown();
    assert_eq!(stats.served, 24);
}

#[test]
fn shutdown_drains_in_flight_and_refuses_new_connections() {
    let net = NetServer::bind(
        "127.0.0.1:0",
        Server::start(float_device(48, 21), quick_config()),
    )
    .expect("bind");
    let addr = net.local_addr();
    let mut client = NetClient::connect(addr).expect("connect");
    let mut x = 23u64;
    client
        .query(&Request::new(OwnedQuery::Euclidean(float_vec(&mut x)), 4))
        .expect("served before shutdown");
    let stats = net.shutdown();
    assert_eq!(stats.served, 1);
    // The listener is gone: new connections fail or are closed without
    // service (either way, no reply ever arrives for a new query).
    let after = NetClient::connect(addr)
        .and_then(|mut c| {
            c.query(&Request::new(OwnedQuery::Euclidean(float_vec(&mut x)), 4))
                .map(|_| ())
                .map_err(|_| std::io::Error::other("no service"))
        })
        .is_err();
    assert!(after, "a query was served after shutdown");
}

#[test]
fn malformed_frame_gets_bad_request_not_a_hang() {
    use std::io::{Read, Write};
    let net = NetServer::bind(
        "127.0.0.1:0",
        Server::start(float_device(48, 25), quick_config()),
    )
    .expect("bind");
    let mut raw = std::net::TcpStream::connect(net.local_addr()).expect("connect");
    // A framed payload of garbage: the server must answer with a typed
    // BadRequest frame rather than dropping the connection silently.
    let garbage = [0xFFu8; 9];
    raw.write_all(&(garbage.len() as u32).to_le_bytes())
        .unwrap();
    raw.write_all(&garbage).unwrap();
    let mut header = [0u8; 4];
    raw.read_exact(&mut header).expect("reply header");
    let len = u32::from_le_bytes(header) as usize;
    let mut payload = vec![0u8; len];
    raw.read_exact(&mut payload).expect("reply payload");
    let reply = ssam::serve::net::decode_reply(&payload).expect("decodes");
    assert!(
        matches!(reply, Err(RemoteError::BadRequest(_))),
        "{reply:?}"
    );
    net.shutdown();
}
