//! Seeded 1 Hz link traces for the `link_replay` workload.
//!
//! The bundled example traces last 24–30 s; a two-lap drive lasts five to
//! eight minutes. This generator writes a trace as long as the drive may
//! run, in the JSONL format `TraceSchedule::parse` reads, shaped after
//! measured 5G teleoperation links (Testouri et al., *5G-Enabled
//! Teleoperated Driving*): ≈30 ms one-way delay with a few ms of jitter,
//! intermittent sub-percent loss, 9–23 Mbit/s, and a handover spike about
//! every 30 s. Choke stretches below the ≈4.4 Mbit/s video rate, long
//! enough to fill the 2×BDP queue, make the rate limiter tail-drop.

use std::fmt::Write as _;

/// SplitMix64: a small, fixed generator, so the trace for a seed never
/// depends on the program's own random streams.
#[derive(Debug, Clone)]
struct SplitMix(u64);

impl SplitMix {
    /// A generator for `seed` (salted so seed 0 is not degenerate).
    fn new(seed: u64) -> Self {
        SplitMix(seed ^ 0x6c69_6e6b_5f74_7263)
    }

    /// The next 64 random bits.
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi)`.
    fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Shape of a generated trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceShape {
    /// Samples (seconds) to emit.
    pub seconds: u32,
    /// Mean spacing of handover spikes, s.
    pub handover_every: f64,
    /// Mean spacing of chokes, s.
    pub choke_every: f64,
    /// Choke length range, s.
    pub choke_len: (f64, f64),
    /// Choke rate range, kbit/s (below the ≈4.4 Mbit/s video rate).
    pub choke_kbit: (f64, f64),
}

impl TraceShape {
    /// A trace that outlasts any two-lap drive (the 900 s run guard),
    /// with a 6–10 s choke at 1.5–2.5 Mbit/s about once a minute.
    pub fn drive() -> Self {
        TraceShape {
            seconds: 900,
            handover_every: 30.0,
            choke_every: 60.0,
            choke_len: (6.0, 10.0),
            choke_kbit: (1500.0, 2500.0),
        }
    }
}

/// Generates the JSONL text of a trace for `seed`.
pub fn generate(seed: u64, shape: &TraceShape) -> String {
    let mut rng = SplitMix::new(seed);
    let mut out = String::with_capacity(shape.seconds as usize * 80);
    let _ = writeln!(
        out,
        "# rdbench link trace, seed {seed}: 5G-shaped 1 Hz samples with handovers and chokes"
    );
    let mut rate = rng.range(12_000.0, 20_000.0);
    let mut delay = rng.range(27.0, 33.0);
    let mut next_handover = rng.range(0.5, 1.5) * shape.handover_every;
    let mut next_choke = rng.range(0.3, 1.0) * shape.choke_every;
    let mut choke_until = -1.0;
    let mut choke_rate = 0.0;
    let mut handover_left = 0u32;
    for t in 0..shape.seconds {
        let t = f64::from(t);
        // Random walks around the 5G operating point.
        rate = (rate + rng.range(-2_000.0, 2_000.0)).clamp(9_000.0, 23_000.0);
        delay = (delay + rng.range(-1.5, 1.5)).clamp(26.0, 36.0);
        let mut jitter = rng.range(2.5, 6.0);
        let mut loss = if rng.range(0.0, 1.0) < 0.3 {
            rng.range(0.1, 0.9)
        } else {
            0.0
        };
        let (mut d, mut r) = (delay, rate);
        if t >= next_handover {
            handover_left = 3;
            next_handover = t + rng.range(0.7, 1.3) * shape.handover_every;
        }
        if handover_left > 0 {
            // Spike, partial recovery, settle.
            let k = f64::from(handover_left) / 3.0;
            d = delay + k * rng.range(60.0, 95.0);
            jitter += k * rng.range(10.0, 20.0);
            loss = k * rng.range(1.0, 3.0);
            r = rate * (1.0 - 0.75 * k);
            handover_left -= 1;
        }
        if t >= next_choke {
            choke_until = t + rng.range(shape.choke_len.0, shape.choke_len.1);
            choke_rate = rng.range(shape.choke_kbit.0, shape.choke_kbit.1);
            next_choke = t + rng.range(0.8, 1.2) * shape.choke_every;
        }
        if t < choke_until {
            r = r.min(choke_rate);
        }
        let _ = write!(
            out,
            "{{\"t\": {t:.1}, \"delay_ms\": {d:.1}, \"jitter_ms\": {jitter:.1}"
        );
        if loss > 0.0 {
            let _ = write!(out, ", \"loss_pct\": {loss:.2}");
        }
        let _ = writeln!(out, ", \"rate_kbit\": {:.0}}}", r.max(500.0));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdsim_netem::TraceSchedule;

    #[test]
    fn same_seed_same_trace_and_it_parses() {
        let shape = TraceShape::drive();
        let a = generate(7, &shape);
        assert_eq!(a, generate(7, &shape));
        assert_ne!(a, generate(8, &shape));
        let trace = TraceSchedule::parse("t", &a).expect("generated traces parse");
        assert_eq!(trace.samples(), shape.seconds as usize);
        assert!(trace.edges() > 100);
    }

    #[test]
    fn shape_holds() {
        let text = generate(11, &TraceShape::drive());
        let rates: Vec<f64> = text
            .lines()
            .filter_map(|l| l.split("\"rate_kbit\": ").nth(1))
            .map(|v| v.trim_end_matches('}').parse().unwrap())
            .collect();
        let choked = rates.iter().filter(|&&r| r < 4_400.0).count();
        assert!(
            choked >= 60,
            "about a minute of choke per 900 s, got {choked}"
        );
        assert!(rates.iter().all(|&r| r <= 23_000.0));
        let healthy = rates.iter().filter(|&&r| r >= 9_000.0).count();
        assert!(healthy * 10 >= rates.len() * 7, "mostly 9–23 Mbit/s");
    }
}
