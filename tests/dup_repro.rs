//! A `Replace` that lists the same victim twice is rejected whole through
//! the public service API: the victim's net stays live and no claim leaks.

use jroute::pathfinder::NetSpec;
use jroute::Pin;
use jroute_svc::{ExecMode, Reject, RequestKind, RequestOutcome, RoutingService, ServiceConfig};
use virtex::{wire, Device, Family};

#[test]
fn duplicate_victims_in_one_replace() {
    let dev = Device::new(Family::Xcv50);
    let cfg = ServiceConfig {
        threads: 1,
        mode: ExecMode::Deterministic { seed: 1 },
        audit: true,
        ..Default::default()
    };
    let mut svc = RoutingService::new(&dev, cfg);
    let spec = NetSpec::new(
        Pin::new(2, 2, wire::S0_YQ),
        vec![Pin::new(4, 6, wire::S0_F3)],
    );
    let a = svc.submit(RequestKind::Route(spec)).unwrap();
    let report = svc.run_batch();
    let Some(&RequestOutcome::Routed { net, .. }) = report.outcome(a) else {
        panic!("route failed: {:?}", report.outcome(a));
    };
    let r = svc
        .submit(RequestKind::Replace {
            remove: vec![a, a],
            add: vec![],
        })
        .unwrap();
    let report = svc.run_batch();
    assert_eq!(
        report.outcome(r),
        Some(&RequestOutcome::Rejected(Reject::UnknownTarget(a)))
    );
    assert_eq!(report.leaked_claims, Some(0));
    assert!(
        svc.db().net(net).is_some(),
        "the victim's net is still live"
    );
}
