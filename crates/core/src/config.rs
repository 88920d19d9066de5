//! Simulator configuration.

use ms_memsys::{BusConfig, DataBanksConfig, ICacheConfig};
use ms_pipeline::{LatencyTable, UnitConfig};

/// Configuration of a multiscalar (or scalar-baseline) processor.
///
/// Defaults reproduce the paper's Section 5.1 parameters. The four
/// configurations evaluated in Tables 3 and 4 are
/// `SimConfig::multiscalar(4 | 8).issue(1 | 2).out_of_order(bool)`
/// against `SimConfig::scalar().issue(..).out_of_order(..)`.
///
/// ```
/// use multiscalar::SimConfig;
/// let cfg = SimConfig::multiscalar(8).issue(2).out_of_order(true);
/// assert_eq!(cfg.units, 8);
/// assert_eq!(cfg.banks.nbanks, 16);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct SimConfig {
    /// Number of processing units (1 for the scalar baseline).
    pub units: usize,
    /// Per-unit issue width (1 or 2).
    pub issue_width: usize,
    /// Out-of-order issue within each unit.
    pub ooo: bool,
    /// OoO consideration window.
    pub window: usize,
    /// Operation latencies (Table 1).
    pub latencies: LatencyTable,
    /// Instruction-cache configuration (per unit).
    pub icache: ICacheConfig,
    /// Data-bank configuration.
    pub banks: DataBanksConfig,
    /// Memory-bus configuration.
    pub bus: BusConfig,
    /// ARB entries per bank (the paper uses 256).
    pub arb_capacity: usize,
    /// Safety bound on simulated cycles.
    pub max_cycles: u64,
    /// Forward-progress watchdog: if no task retires for this many
    /// cycles, the run fails fast with [`crate::SimError::NoProgress`]
    /// (carrying a diagnostic snapshot) instead of running to the cycle
    /// bound. `None` disables the watchdog.
    pub watchdog: Option<u64>,
    /// Ring hop latency in cycles (paper: 1).
    pub ring_hop_latency: u64,
    /// Ring width override; `None` matches the issue width (paper).
    pub ring_width: Option<usize>,
    /// Task-prediction scheme (paper default: PAs).
    pub predictor: crate::PredictorKind,
    /// Response to ARB capacity exhaustion (paper default: stall).
    pub arb_full_policy: crate::ArbFullPolicy,
    /// Event-driven skip-ahead stepping of the multiscalar processor (on
    /// by default; the scalar baseline always ticks): when the whole
    /// machine is provably quiet for N cycles, the clock jumps by N and
    /// the skipped cycles are bulk-charged to the same accounting
    /// buckets the ticked loop would have used. Purely a host-side
    /// optimization — results are byte-identical in both modes (see
    /// DESIGN.md §13) — so it is deliberately *excluded* from
    /// [`SimConfig::stable_key`].
    pub skip_ahead: bool,
}

impl SimConfig {
    /// The paper's multiscalar configuration for `units` processing units
    /// (2 × units data banks, 2-cycle data-cache hits).
    ///
    /// # Panics
    /// Panics if `units` is zero.
    pub fn multiscalar(units: usize) -> SimConfig {
        assert!(units > 0, "need at least one unit");
        SimConfig {
            units,
            issue_width: 1,
            ooo: false,
            window: 16,
            latencies: LatencyTable::default(),
            icache: ICacheConfig::default(),
            banks: DataBanksConfig::multiscalar(units),
            bus: BusConfig::default(),
            arb_capacity: 256,
            max_cycles: 2_000_000_000,
            watchdog: Some(10_000_000),
            ring_hop_latency: 1,
            ring_width: None,
            predictor: crate::PredictorKind::Pas,
            arb_full_policy: crate::ArbFullPolicy::Stall,
            skip_ahead: true,
        }
    }

    /// The paper's scalar baseline (one aggressive unit, 1-cycle data
    /// cache hits, no multiscalar overheads).
    pub fn scalar() -> SimConfig {
        SimConfig { units: 1, banks: DataBanksConfig::scalar(), ..SimConfig::multiscalar(1) }
    }

    /// Sets the per-unit issue width (builder style).
    ///
    /// # Panics
    /// Panics unless `width` is 1 or 2.
    pub fn issue(mut self, width: usize) -> SimConfig {
        assert!(width == 1 || width == 2, "paper evaluates 1- and 2-way units");
        self.issue_width = width;
        self
    }

    /// Enables or disables out-of-order issue (builder style).
    pub fn out_of_order(mut self, ooo: bool) -> SimConfig {
        self.ooo = ooo;
        self
    }

    /// Overrides the cycle safety bound (builder style).
    pub fn max_cycles(mut self, cycles: u64) -> SimConfig {
        self.max_cycles = cycles;
        self
    }

    /// Sets the forward-progress watchdog window, or disables it with
    /// `None` (builder style). The default is 10M cycles: far above any
    /// legitimate inter-retirement gap, far below the cycle bound.
    pub fn watchdog(mut self, window: Option<u64>) -> SimConfig {
        self.watchdog = window;
        self
    }

    /// Sets the ring hop latency (builder style; ablation knob).
    ///
    /// # Panics
    /// Panics if `cycles` is zero.
    pub fn ring_latency(mut self, cycles: u64) -> SimConfig {
        assert!(cycles > 0, "ring hops take at least one cycle");
        self.ring_hop_latency = cycles;
        self
    }

    /// Overrides the ring width (builder style; ablation knob).
    pub fn ring_width(mut self, width: usize) -> SimConfig {
        assert!(width > 0, "ring width must be positive");
        self.ring_width = Some(width);
        self
    }

    /// Selects the task-prediction scheme (builder style; ablation knob).
    pub fn predictor(mut self, kind: crate::PredictorKind) -> SimConfig {
        self.predictor = kind;
        self
    }

    /// Selects the ARB-overflow policy (builder style; ablation knob).
    pub fn arb_policy(mut self, policy: crate::ArbFullPolicy) -> SimConfig {
        self.arb_full_policy = policy;
        self
    }

    /// Enables or disables event-driven skip-ahead stepping (builder
    /// style). On by default; turning it off forces the classic
    /// one-cycle-per-step loop. The two modes are observationally
    /// indistinguishable — `RunStats` and CPI stacks are byte-identical
    /// (pinned by `tests/golden_stats.rs` and `tests/cpi_conservation.rs`)
    /// — so the sweep-cache key deliberately ignores the knob:
    ///
    /// ```
    /// use multiscalar::SimConfig;
    /// let fast = SimConfig::multiscalar(4);
    /// let ticked = fast.skip_ahead(false);
    /// assert!(fast.skip_ahead && !ticked.skip_ahead);
    /// assert_eq!(fast.stable_key(), ticked.stable_key());
    /// ```
    pub fn skip_ahead(mut self, on: bool) -> SimConfig {
        self.skip_ahead = on;
        self
    }

    /// A canonical, versioned, line-oriented serialization of every field
    /// that affects simulation results.
    ///
    /// Two configs produce the same key iff they are equal, and the
    /// rendering is stable across processes and Rust releases (unlike
    /// `Hash`, whose hasher may change), so it is safe to use in on-disk
    /// cache keys. The leading `simconfig v1` token must be bumped
    /// whenever a field is added, removed, or changes meaning.
    ///
    /// [`SimConfig::skip_ahead`] is deliberately absent: it cannot
    /// affect simulation results (both modes are byte-identical), and
    /// keying on it would needlessly split the sweep cache between the
    /// fast and the ticked stepper.
    pub fn stable_key(&self) -> String {
        let predictor = match self.predictor {
            crate::PredictorKind::Pas => "pas",
            crate::PredictorKind::StaticFirstTarget => "static-first-target",
            crate::PredictorKind::LastOutcome => "last-outcome",
        };
        let arb_policy = match self.arb_full_policy {
            crate::ArbFullPolicy::Stall => "stall",
            crate::ArbFullPolicy::Squash => "squash",
        };
        let ring_width = match self.ring_width {
            Some(w) => w.to_string(),
            None => "issue".to_string(),
        };
        let watchdog = match self.watchdog {
            Some(w) => w.to_string(),
            None => "off".to_string(),
        };
        let l = &self.latencies;
        format!(
            "simconfig v2;units={};issue={};ooo={};window={};\
             lat={},{},{},{},{},{},{},{},{},{},{},{};\
             icache={},{},{},{};banks={},{},{},{},{};bus={},{};\
             arb_capacity={};max_cycles={};watchdog={};ring_hop={};ring_width={};\
             predictor={};arb_full={}",
            self.units,
            self.issue_width,
            self.ooo,
            self.window,
            l.int_alu,
            l.int_mul,
            l.int_div,
            l.load,
            l.store,
            l.branch,
            l.fp_add_s,
            l.fp_mul_s,
            l.fp_div_s,
            l.fp_add_d,
            l.fp_mul_d,
            l.fp_div_d,
            self.icache.size_bytes,
            self.icache.block_bytes,
            self.icache.hit_time,
            self.icache.miss_extra,
            self.banks.nbanks,
            self.banks.bank_bytes,
            self.banks.block_bytes,
            self.banks.hit_time,
            self.banks.miss_extra,
            self.bus.first_beat,
            self.bus.extra_beat,
            self.arb_capacity,
            self.max_cycles,
            watchdog,
            self.ring_hop_latency,
            ring_width,
            predictor,
            arb_policy,
        )
    }

    /// Parses a [`SimConfig::stable_key`] rendering back into a config.
    ///
    /// This is the inverse of `stable_key` for every field the key
    /// records; [`SimConfig::skip_ahead`] is not part of the key, so the
    /// parsed config carries the default (`true`). The round trip
    /// `from_stable_key(k)?.stable_key() == k` holds for every key
    /// produced by this crate version. Returns `None` on any version
    /// mismatch, missing/extra section, or malformed field — callers
    /// shipping keys across a process boundary (the ms-serve worker pipe
    /// protocol) treat `None` as a protocol error, never a panic.
    ///
    /// ```
    /// use multiscalar::SimConfig;
    /// let cfg = SimConfig::multiscalar(4).issue(2).out_of_order(true);
    /// let back = SimConfig::from_stable_key(&cfg.stable_key()).unwrap();
    /// assert_eq!(back, cfg);
    /// ```
    pub fn from_stable_key(key: &str) -> Option<SimConfig> {
        fn field<'a>(part: Option<&'a str>, name: &str) -> Option<&'a str> {
            part?.strip_prefix(name)?.strip_prefix('=')
        }
        fn num<T: std::str::FromStr>(s: &str) -> Option<T> {
            s.parse().ok()
        }
        fn nums<const N: usize>(s: &str) -> Option<[u64; N]> {
            let mut out = [0u64; N];
            let mut it = s.split(',');
            for slot in out.iter_mut() {
                *slot = num(it.next()?)?;
            }
            if it.next().is_some() {
                return None;
            }
            Some(out)
        }
        let mut parts = key.split(';');
        if parts.next()? != "simconfig v2" {
            return None;
        }
        let units: usize = num(field(parts.next(), "units")?)?;
        if units == 0 {
            return None;
        }
        let mut cfg = SimConfig::multiscalar(units);
        cfg.issue_width = num(field(parts.next(), "issue")?)?;
        cfg.ooo = num(field(parts.next(), "ooo")?)?;
        cfg.window = num(field(parts.next(), "window")?)?;
        let l: [u64; 12] = nums(field(parts.next(), "lat")?)?;
        cfg.latencies = LatencyTable {
            int_alu: l[0],
            int_mul: l[1],
            int_div: l[2],
            load: l[3],
            store: l[4],
            branch: l[5],
            fp_add_s: l[6],
            fp_mul_s: l[7],
            fp_div_s: l[8],
            fp_add_d: l[9],
            fp_mul_d: l[10],
            fp_div_d: l[11],
        };
        let ic: [u64; 4] = nums(field(parts.next(), "icache")?)?;
        cfg.icache = ICacheConfig {
            size_bytes: u32::try_from(ic[0]).ok()?,
            block_bytes: u32::try_from(ic[1]).ok()?,
            hit_time: ic[2],
            miss_extra: ic[3],
        };
        let bk: [u64; 5] = nums(field(parts.next(), "banks")?)?;
        cfg.banks = DataBanksConfig {
            nbanks: usize::try_from(bk[0]).ok()?,
            bank_bytes: u32::try_from(bk[1]).ok()?,
            block_bytes: u32::try_from(bk[2]).ok()?,
            hit_time: bk[3],
            miss_extra: bk[4],
        };
        let bus: [u64; 2] = nums(field(parts.next(), "bus")?)?;
        cfg.bus = BusConfig { first_beat: bus[0], extra_beat: bus[1] };
        cfg.arb_capacity = num(field(parts.next(), "arb_capacity")?)?;
        cfg.max_cycles = num(field(parts.next(), "max_cycles")?)?;
        cfg.watchdog = match field(parts.next(), "watchdog")? {
            "off" => None,
            w => Some(num(w)?),
        };
        cfg.ring_hop_latency = num(field(parts.next(), "ring_hop")?)?;
        cfg.ring_width = match field(parts.next(), "ring_width")? {
            "issue" => None,
            w => Some(num(w)?),
        };
        cfg.predictor = match field(parts.next(), "predictor")? {
            "pas" => crate::PredictorKind::Pas,
            "static-first-target" => crate::PredictorKind::StaticFirstTarget,
            "last-outcome" => crate::PredictorKind::LastOutcome,
            _ => return None,
        };
        cfg.arb_full_policy = match field(parts.next(), "arb_full")? {
            "stall" => crate::ArbFullPolicy::Stall,
            "squash" => crate::ArbFullPolicy::Squash,
            _ => return None,
        };
        if parts.next().is_some() {
            return None;
        }
        Some(cfg)
    }

    /// The per-unit pipeline configuration implied by this config.
    pub fn unit_config(&self) -> UnitConfig {
        UnitConfig {
            issue_width: self.issue_width,
            ooo: self.ooo,
            window: self.window,
            fetch_buffer: 16,
            latencies: self.latencies,
            icache: self.icache,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_configs() {
        let m8 = SimConfig::multiscalar(8);
        assert_eq!(m8.banks.nbanks, 16);
        assert_eq!(m8.banks.hit_time, 2);
        assert_eq!(m8.arb_capacity, 256);
        let s = SimConfig::scalar();
        assert_eq!(s.units, 1);
        assert_eq!(s.banks.hit_time, 1);
    }

    #[test]
    fn builders_compose() {
        let c = SimConfig::multiscalar(4).issue(2).out_of_order(true).max_cycles(5);
        assert_eq!(c.issue_width, 2);
        assert!(c.ooo);
        assert_eq!(c.max_cycles, 5);
        assert_eq!(c.unit_config().issue_width, 2);
    }

    #[test]
    #[should_panic(expected = "1- and 2-way")]
    fn bad_width_rejected() {
        let _ = SimConfig::scalar().issue(3);
    }

    #[test]
    fn stable_key_distinguishes_every_builder_knob() {
        let base = SimConfig::multiscalar(8);
        let variants = [
            base.issue(2),
            base.out_of_order(true),
            base.max_cycles(7),
            base.watchdog(None),
            base.watchdog(Some(5_000)),
            base.ring_latency(2),
            base.ring_width(4),
            base.predictor(crate::PredictorKind::LastOutcome),
            base.arb_policy(crate::ArbFullPolicy::Squash),
            SimConfig::multiscalar(4),
            SimConfig::scalar(),
        ];
        let base_key = base.stable_key();
        assert_eq!(base_key, SimConfig::multiscalar(8).stable_key());
        assert!(base_key.starts_with("simconfig v2;"));
        for v in &variants {
            assert_ne!(v.stable_key(), base_key, "{v:?}");
        }
        let mut tiny = base;
        tiny.arb_capacity = 8;
        assert_ne!(tiny.stable_key(), base_key);
    }

    #[test]
    fn stable_key_round_trips() {
        let base = SimConfig::multiscalar(8);
        let variants = [
            base,
            base.issue(2).out_of_order(true),
            base.max_cycles(7).watchdog(None),
            base.watchdog(Some(5_000)).ring_latency(2),
            base.ring_width(4).predictor(crate::PredictorKind::LastOutcome),
            base.predictor(crate::PredictorKind::StaticFirstTarget),
            base.arb_policy(crate::ArbFullPolicy::Squash),
            SimConfig::multiscalar(4),
            SimConfig::scalar(),
        ];
        for v in &variants {
            let key = v.stable_key();
            let back = SimConfig::from_stable_key(&key).unwrap();
            assert_eq!(back, *v, "round trip of {key}");
            assert_eq!(back.stable_key(), key);
        }
        // skip_ahead is not in the key, so it parses back to the default
        // even when the original had it off.
        let ticked = base.skip_ahead(false);
        assert_eq!(SimConfig::from_stable_key(&ticked.stable_key()).unwrap(), base);
    }

    #[test]
    fn from_stable_key_rejects_malformed() {
        let key = SimConfig::multiscalar(4).stable_key();
        assert!(SimConfig::from_stable_key("").is_none());
        assert!(SimConfig::from_stable_key("simconfig v1;units=4").is_none());
        assert!(SimConfig::from_stable_key(&key.replace("v2", "v3")).is_none());
        assert!(SimConfig::from_stable_key(&key.replace("units=4", "units=zero")).is_none());
        assert!(SimConfig::from_stable_key(&key.replace("units=4", "units=0")).is_none());
        assert!(SimConfig::from_stable_key(&key.replace("predictor=pas", "predictor=psychic"))
            .is_none());
        assert!(SimConfig::from_stable_key(&format!("{key};extra=1")).is_none());
        assert!(SimConfig::from_stable_key(key.rsplit_once(';').unwrap().0).is_none());
        // Truncated or over-long latency list.
        assert!(SimConfig::from_stable_key(&key.replace("lat=1,", "lat=")).is_none());
        assert!(SimConfig::from_stable_key(&key.replace("lat=1,", "lat=1,1,")).is_none());
    }

    #[test]
    fn stable_key_ignores_skip_ahead() {
        // Skip-ahead is observationally neutral; the cache key must be
        // shared so ticked and skip-ahead runs hit the same entries.
        let base = SimConfig::multiscalar(8);
        assert_eq!(base.skip_ahead(false).stable_key(), base.stable_key());
        assert_ne!(base.skip_ahead(false), base, "Eq still sees the knob");
    }
}
