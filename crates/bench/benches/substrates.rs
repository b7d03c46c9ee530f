//! Micro-benchmarks of the substrates: netem qdisc, world stepping,
//! frame codec, metric kernels, PRNG.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use rdsim_bench::fixture_pair;
use rdsim_math::{ButterworthLowPass, RngStream, Sample};
use rdsim_metrics::{steering_reversal_rate, ttc_series, SrrConfig, TtcConfig};
use rdsim_netem::{NetemConfig, NetemQdisc, Packet, PacketKind, Qdisc};
use rdsim_roadnet::town05;
use rdsim_simulator::{
    decode_frame_into, encode_frame_into, ActorKind, Behavior, LaneFollowConfig, World,
    WorldSnapshot,
};
use rdsim_units::{Hertz, MetersPerSecond, Millis, Ratio, Seconds, SimDuration, SimTime};
use rdsim_vehicle::{ControlInput, KinematicBicycle, VehicleSpec, VehicleState};
use std::hint::black_box;

fn netem_benches(c: &mut Criterion) {
    let mut g = c.benchmark_group("netem");
    g.throughput(Throughput::Elements(1));
    let config = NetemConfig::default()
        .with_jittered_delay(Millis::new(50.0), Millis::new(10.0), Ratio::new(0.25))
        .with_loss(Ratio::from_percent(5.0));
    g.bench_function("qdisc_enqueue_dequeue", |b| {
        let mut q = NetemQdisc::with_config(config, 1);
        let mut seq = 0u64;
        let mut now = SimTime::ZERO;
        b.iter(|| {
            seq += 1;
            now += SimDuration::from_micros(500);
            q.enqueue(Packet::new(seq, PacketKind::Video, vec![0u8; 256]), now);
            black_box(q.dequeue(now));
        })
    });
    g.bench_function("rule_parse", |b| {
        b.iter(|| {
            black_box(
                black_box("delay 50ms 10ms 25% loss 5% 30% rate 10mbit")
                    .parse::<NetemConfig>()
                    .expect("valid"),
            )
        })
    });
    g.finish();
}

fn simulator_benches(c: &mut Criterion) {
    let mut g = c.benchmark_group("simulator");
    g.bench_function("world_step_7_actors", |b| {
        let mut world = World::new(town05(), 1);
        let ego = world.spawn_ego_at("ego-start", VehicleSpec::passenger_car());
        world.spawn_npc_at(
            "lead-start",
            ActorKind::Vehicle,
            VehicleSpec::passenger_car(),
            Behavior::LaneFollow(LaneFollowConfig::urban(MetersPerSecond::new(9.0))),
            MetersPerSecond::new(9.0),
        );
        for name in ["slalom-1", "slalom-2", "slalom-3"] {
            world.spawn_npc_at(
                name,
                ActorKind::Vehicle,
                VehicleSpec::van(),
                Behavior::Stationary,
                MetersPerSecond::ZERO,
            );
        }
        for name in ["cyclist-1", "cyclist-2"] {
            world.spawn_npc_at(
                name,
                ActorKind::Cyclist,
                VehicleSpec::bicycle(),
                Behavior::LaneFollow(LaneFollowConfig::cyclist(MetersPerSecond::new(4.0))),
                MetersPerSecond::new(4.0),
            );
        }
        world.set_external_control(ego, ControlInput::new(0.4, 0.0, 0.0));
        b.iter(|| {
            world.step(SimDuration::from_millis(20));
            black_box(world.time());
        })
    });
    g.bench_function("vehicle_kinematic_step", |b| {
        let mut model = KinematicBicycle::new(VehicleSpec::passenger_car());
        let mut state = VehicleState::default();
        let input = ControlInput::new(0.5, 0.0, 0.1);
        b.iter(|| {
            state = model.step(&state, &input, Seconds::new(0.02));
            black_box(&state);
        })
    });
    let snapshot = {
        let mut world = World::new(town05(), 1);
        world.spawn_ego_at("ego-start", VehicleSpec::passenger_car());
        world.spawn_npc_at(
            "lead-start",
            ActorKind::Vehicle,
            VehicleSpec::passenger_car(),
            Behavior::Stationary,
            MetersPerSecond::ZERO,
        );
        world.snapshot()
    };
    let mut encoded = Vec::new();
    encode_frame_into(&snapshot, &mut encoded);
    g.throughput(Throughput::Bytes(encoded.len() as u64));
    g.bench_function("frame_encode", |b| {
        let mut out = Vec::new();
        b.iter(|| {
            encode_frame_into(black_box(&snapshot), &mut out);
            black_box(&out);
        })
    });
    g.bench_function("frame_decode", |b| {
        let mut decoded = WorldSnapshot::default();
        b.iter(|| {
            decode_frame_into(black_box(&encoded), &mut decoded).expect("valid");
            black_box(&decoded);
        })
    });
    g.finish();
}

fn metric_benches(c: &mut Criterion) {
    let mut g = c.benchmark_group("metrics");
    let (golden, _) = fixture_pair(11);
    g.bench_function("ttc_series_full_log", |b| {
        let cfg = TtcConfig::default();
        b.iter(|| black_box(ttc_series(black_box(&golden.log), &cfg)))
    });
    let steering = golden.log.steering_series();
    g.bench_function("srr_full_log", |b| {
        let cfg = SrrConfig::default();
        b.iter(|| black_box(steering_reversal_rate(black_box(&steering), &cfg)))
    });
    let signal: Vec<f64> = (0..10_000).map(|i| (i as f64 * 0.01).sin()).collect();
    g.bench_function("butterworth_10k_samples", |b| {
        b.iter(|| {
            black_box(ButterworthLowPass::filter_signal(
                Hertz::new(0.6),
                Seconds::new(0.02),
                black_box(&signal),
            ))
        })
    });
    let samples: Vec<Sample> = (0..10_000)
        .map(|i| Sample::new(i as f64 * 0.02, (i as f64 * 0.01).sin()))
        .collect();
    g.bench_function("srr_10k_samples", |b| {
        let cfg = SrrConfig::default();
        b.iter(|| black_box(steering_reversal_rate(black_box(&samples), &cfg)))
    });
    g.finish();
}

fn rng_benches(c: &mut Criterion) {
    let mut g = c.benchmark_group("rng");
    g.throughput(Throughput::Elements(1));
    let mut rng = RngStream::from_seed(1);
    g.bench_function("next_u64", |b| b.iter(|| black_box(rng.next_u64())));
    g.bench_function("normal", |b| b.iter(|| black_box(rng.normal(0.0, 1.0))));
    g.bench_function("substream_derivation", |b| {
        b.iter(|| black_box(rng.substream(black_box("bench-label"))))
    });
    g.finish();
}

criterion_group!(
    substrate_benches,
    netem_benches,
    simulator_benches,
    metric_benches,
    rng_benches
);
criterion_main!(substrate_benches);
