//! LPS's interval stencil runs a rows-down cursor on `BlockCol` chunks.
//! This sweeps it against the serial LPS table: 2–4 places, the local,
//! random and min-comm schedules, no cache and a small one, with and
//! without a kill at half progress, on worker threads and on an
//! in-process socket mesh. Every run's fingerprint must equal the
//! table's.

use std::sync::Arc;
use std::time::Duration;

use dpx10_apgas::{local_mesh, SocketConfig};
use dpx10_apps::{lps::LpsApp, serial, workload};
use dpx10_core::{
    DagResult, DistKind, EngineConfig, FaultPlan, PlaceId, RunReport, ScheduleStrategy,
    SocketEngine, ThreadedEngine,
};
use dpx10_distarray::{Dist, DistArray, Region2D};

/// The fingerprint of the serial LPS table of `text`.
fn oracle_fingerprint(text: &[u8]) -> u64 {
    let n = text.len() as u32;
    let dist = Dist::new(Region2D::new(n, n), DistKind::BlockCol, vec![PlaceId(0)]);
    let mut array = DistArray::new(Arc::new(dist));
    for (i, row) in (0..).zip(serial::lps_table(text)) {
        for (j, d) in (0..).zip(row).skip(i as usize) {
            array.set(i, j, d);
        }
    }
    DagResult::new(array, RunReport::default()).fingerprint()
}

#[test]
fn interval_sweeps_match_the_serial_lps_table() {
    let text = workload::dna(57, 0x1F5);
    let expect = oracle_fingerprint(&text);
    let schedules = [
        ScheduleStrategy::Local,
        ScheduleStrategy::Random,
        ScheduleStrategy::MinComm,
    ];
    let mut run = 0u16;
    for schedule in schedules {
        for cache in [0, 8] {
            for kill in [false, true] {
                for sockets in [false, true] {
                    let places = 2 + run % 3;
                    run += 1;
                    let what = format!(
                        "{schedule:?}, cache {cache}, kill {kill}, sockets {sockets}, {places} places"
                    );
                    let mut config = EngineConfig::flat(places)
                        .with_dist(DistKind::BlockCol)
                        .with_schedule(schedule)
                        .with_cache(cache);
                    if kill {
                        config = config.with_fault(FaultPlan {
                            place: PlaceId(places - 1),
                            after_fraction: 0.5,
                        });
                    }
                    let app = LpsApp::new(text.clone());
                    let pattern = app.pattern();
                    let result = if sockets {
                        local_mesh(places, |mut cfg: SocketConfig| {
                            cfg.heartbeat = Duration::from_millis(25);
                            cfg.peer_timeout = Duration::from_millis(600);
                            SocketEngine::new(app.clone(), pattern, config.clone())
                                .with_soft_die()
                                .run(cfg)
                        })
                        .unwrap_or_else(|e| panic!("{what}: {e}"))
                    } else {
                        let engine = ThreadedEngine::new(app.clone(), pattern, config);
                        engine.run().unwrap_or_else(|e| panic!("{what}: {e}"))
                    };
                    assert_eq!(result.fingerprint(), expect, "{what}");
                    assert_eq!(app.answer(&result), serial::lps(&text), "{what}");
                    let epochs = result.report().epochs;
                    assert_eq!(epochs > 1, kill, "{what}: {epochs} epochs");
                }
            }
        }
    }
}
