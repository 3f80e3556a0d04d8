//! Cross-crate integration tests: the full stack (virtex + jbits +
//! jroute + cores + vsim) exercised together.

use detrand::DetRng;
use jbits::{diff, snapshot};
use jroute::pathfinder::{self, PathFinderConfig};
use jroute::{EndPoint, Pin, PortDir, RouteError, Router};
use jroute_cores::{relocate, ConstAdder, Counter, Register, RtpCore, StimulusBank};
use jroute_svc::{ExecMode, RequestKind, RoutingService, ServiceConfig};
use jroute_workloads::{random_netlist, NetlistParams};
use virtex::{wire, Device, Family, RowCol};
use vsim::{LogicSource, Simulator};

fn dev50() -> Device {
    Device::new(Family::Xcv50)
}

#[test]
fn full_rtr_lifecycle_restores_blank_device() {
    let dev = dev50();
    let mut r = Router::new(&dev);
    let blank = snapshot(r.bits());

    // Build a small design: counter + register, port-connected.
    let mut ctr = Counter::new(4, 0, RowCol::new(2, 3));
    let mut reg = Register::new(4, 0, RowCol::new(2, 9));
    ctr.implement(&mut r).unwrap();
    reg.implement(&mut r).unwrap();
    let q: Vec<EndPoint> = ctr.q_ports().iter().map(|&p| p.into()).collect();
    let d: Vec<EndPoint> = reg.d_ports().iter().map(|&p| p.into()).collect();
    r.route_bus(&q, &d).unwrap();
    assert!(r.bits().on_pip_count() > 0);

    // Tear everything down: external nets, then the cores.
    jroute_cores::detach(&ctr, &mut r).unwrap();
    ctr.remove(&mut r).unwrap();
    reg.remove(&mut r).unwrap();

    let end = snapshot(r.bits());
    assert_eq!(
        diff(&blank, &end),
        vec![],
        "device must be bit-identical to blank after removal"
    );
}

#[test]
fn counter_register_system_runs_in_vsim() {
    let dev = dev50();
    let mut r = Router::new(&dev);
    let mut ctr = Counter::new(3, 0, RowCol::new(2, 3));
    let mut reg = Register::new(3, 0, RowCol::new(2, 9));
    ctr.implement(&mut r).unwrap();
    reg.implement(&mut r).unwrap();
    let q: Vec<EndPoint> = ctr.q_ports().iter().map(|&p| p.into()).collect();
    let d: Vec<EndPoint> = reg.d_ports().iter().map(|&p| p.into()).collect();
    r.route_bus(&q, &d).unwrap();

    let mut sim = Simulator::new(r.bits());
    for step in 1..=10u64 {
        sim.step().unwrap();
        let count = (0..3).fold(0u64, |acc, b| {
            acc | (sim
                .read(LogicSource::Xq {
                    rc: ctr.bit_site(b),
                    slice: 0,
                })
                .unwrap() as u64)
                << b
        });
        assert_eq!(count, step % 8);
        // The register lags the counter by one cycle.
        let lagged = (0..3).fold(0u64, |acc, b| {
            acc | (sim
                .read(LogicSource::Xq {
                    rc: reg.bit_site(b),
                    slice: 0,
                })
                .unwrap() as u64)
                << b
        });
        assert_eq!(lagged, (step - 1) % 8, "register holds previous count");
    }
}

#[test]
fn pathfinder_result_traces_end_to_end() {
    let dev = dev50();
    let mut rng = DetRng::seed_from_u64(11);
    let specs = random_netlist(
        &dev,
        &NetlistParams {
            nets: 12,
            max_fanout: 2,
            max_span: Some(8),
        },
        &mut rng,
    );
    let result = pathfinder::route_all(&dev, &specs, &PathFinderConfig::default()).unwrap();
    assert!(result.legal);
    let mut bits = jbits::Bitstream::new(&dev);
    pathfinder::apply(&result, &mut bits).unwrap();
    // Every net must trace from its source to exactly its sinks.
    for net in &result.nets {
        let src = dev
            .canonicalize(net.spec.source.rc, net.spec.source.wire)
            .unwrap();
        let traced = jroute::trace::trace(&bits, src);
        let mut want: Vec<Pin> = net.spec.sinks.clone();
        want.sort();
        let mut got = traced.sinks.clone();
        got.sort();
        assert_eq!(got, want, "net from {src} reaches wrong sinks");
    }
}

#[test]
fn parallel_and_pathfinder_agree_with_router_on_light_load() {
    let dev = dev50();
    let mut rng = DetRng::seed_from_u64(21);
    let specs = random_netlist(
        &dev,
        &NetlistParams {
            nets: 8,
            max_fanout: 1,
            max_span: Some(6),
        },
        &mut rng,
    );
    // Sequential router.
    let mut r = Router::new(&dev);
    let mut seq_ok = 0;
    for s in &specs {
        if r.route(&s.source.into(), &s.sinks[0].into()).is_ok() {
            seq_ok += 1;
        }
    }
    // Claim-table routing through the threaded batch service.
    let mut svc = RoutingService::new(
        &dev,
        ServiceConfig {
            threads: 4,
            mode: ExecMode::Threaded,
            audit: true,
            ..Default::default()
        },
    );
    let ids: Vec<_> = specs
        .iter()
        .map(|s| svc.submit(RequestKind::Route(s.clone())).unwrap())
        .collect();
    let report = svc.run_batch();
    let failed: Vec<_> = ids
        .iter()
        .filter(|&&id| !report.outcome(id).is_some_and(|o| o.is_success()))
        .collect();
    assert_eq!(seq_ok, 8);
    assert_eq!(svc.db().len(), 8);
    assert!(failed.is_empty(), "failed: {failed:?}");
    assert_eq!(report.leaked_claims, Some(0));
}

#[test]
fn port_hierarchy_spans_cores() {
    // An outer "system" port bound to an inner core's port (paper §3.2:
    // "connections from ports of internal cores to its own ports").
    let dev = dev50();
    let mut r = Router::new(&dev);
    let mut stim = StimulusBank::new(1, RowCol::new(2, 2));
    let mut adder = ConstAdder::new(1, 1, RowCol::new(2, 8));
    stim.implement(&mut r).unwrap();
    adder.implement(&mut r).unwrap();
    let outer_in = r.define_port(
        "sys_in",
        "system",
        PortDir::Input,
        vec![adder.a_ports()[0].into()],
    );
    let outer_out = r.define_port(
        "sys_src",
        "system",
        PortDir::Output,
        vec![stim.out_ports()[0].into()],
    );
    r.route(&outer_out.into(), &outer_in.into()).unwrap();
    let traced = r.trace(&outer_out.into()).unwrap();
    // The adder's `a` port binds two pins (F1 and G1).
    assert_eq!(traced.sinks.len(), 2);
}

#[test]
fn router_refuses_contention_with_foreign_configuration() {
    let dev = dev50();
    let mut r = Router::new(&dev);
    // A foreign tool (raw JBits) drives a single.
    r.bits_mut()
        .set_pip(
            RowCol::new(4, 4),
            wire::out(0),
            wire::single(virtex::Dir::East, 2),
        )
        .unwrap();
    // The router's auto-route must not use that wire as a target, and a
    // manual route driving it must be rejected.
    let mut drivers = Vec::new();
    dev.arch().pips_into(
        RowCol::new(4, 4),
        wire::single(virtex::Dir::East, 2),
        &mut drivers,
    );
    let other = drivers.into_iter().find(|w| *w != wire::out(0)).unwrap();
    let err = r
        .route_pip(RowCol::new(4, 4), other, wire::single(virtex::Dir::East, 2))
        .unwrap_err();
    assert!(matches!(err, RouteError::Contention { .. }));
}

#[test]
fn routing_works_on_every_family_member() {
    for f in Family::ALL {
        let dev = Device::new(f);
        // Chip-diagonal nets are exactly what long lines exist for; using
        // them also keeps the search tractable on the 64x96 member.
        let mut r = Router::with_options(
            &dev,
            jroute::RouterOptions {
                use_long_lines: true,
                ..Default::default()
            },
        );
        let rows = dev.dims().rows;
        let cols = dev.dims().cols;
        let src: EndPoint = Pin::new(1, 1, wire::S0_YQ).into();
        let sink: EndPoint = Pin::new(rows - 2, cols - 2, wire::S0_F3).into();
        r.route(&src, &sink).unwrap_or_else(|e| panic!("{f}: {e}"));
        let net = r.trace(&src).unwrap();
        assert_eq!(net.sinks.len(), 1, "{f}");
    }
}

#[test]
fn relocation_is_idempotent_over_many_moves() {
    let dev = Device::new(Family::Xcv300);
    let mut r = Router::new(&dev);
    let mut stim = StimulusBank::new(2, RowCol::new(2, 2));
    let mut adder = ConstAdder::new(2, 1, RowCol::new(2, 8));
    stim.implement(&mut r).unwrap();
    adder.implement(&mut r).unwrap();
    let s: Vec<EndPoint> = stim.out_ports().iter().map(|&p| p.into()).collect();
    let a: Vec<EndPoint> = adder.a_ports().iter().map(|&p| p.into()).collect();
    r.route_bus(&s, &a).unwrap();
    for (row, col) in [(6u16, 12u16), (10, 20), (4, 30), (2, 8)] {
        relocate(&mut adder, &mut r, RowCol::new(row, col)).unwrap();
        assert!(
            r.remembered().is_empty(),
            "move to ({row},{col}) left dangling connections"
        );
        let traced = r.trace(&s[0]).unwrap();
        assert_eq!(
            traced.sinks.len(),
            2,
            "F1+G1 of bit 0 after move to ({row},{col})"
        );
        // Net bookkeeping must agree with the bitstream exactly: the sum
        // of recorded net pips equals the configured on-PIP count.
        let recorded: usize = r.nets().iter().map(|n| n.pips.len()).sum();
        assert_eq!(
            recorded,
            r.bits().on_pip_count(),
            "netdb/bitstream drift at ({row},{col})"
        );
    }
}

#[test]
fn frame_accounting_reflects_partial_reconfiguration() {
    let dev = dev50();
    let mut r = Router::new(&dev);
    let src: EndPoint = Pin::new(3, 3, wire::S0_YQ).into();
    let sink: EndPoint = Pin::new(3, 6, wire::S0_F3).into();
    r.route(&src, &sink).unwrap();
    let route_frames = r.bits_mut().frames_mut().take().len();
    assert!(route_frames > 0);
    // Unrouting touches the same columns again.
    r.unroute(&src).unwrap();
    let unroute_frames = r.bits_mut().frames_mut().take().len();
    assert!(unroute_frames > 0 && unroute_frames <= route_frames);
    // Both are tiny against the full device.
    let total = jbits::frame::total_frames(dev.dims());
    assert!(route_frames * 10 < total);
}
