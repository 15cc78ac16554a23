//! Simulation reports: time, energy, utilization, roofline coordinates.

use std::fmt;

/// A contended resource class tracked by the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Resource {
    /// Matrix units (pool of `cores x mxus_per_core`).
    Mxu,
    /// Vector units (pool of `cores`).
    Vpu,
    /// DMA engines.
    Dma,
    /// Inter-chip links.
    Ici,
    /// The shared HBM channel (bandwidth server).
    HbmChannel,
    /// The shared CMEM channel (bandwidth server).
    CmemChannel,
}

impl Resource {
    /// All resource classes.
    pub const ALL: [Resource; 6] = [
        Resource::Mxu,
        Resource::Vpu,
        Resource::Dma,
        Resource::Ici,
        Resource::HbmChannel,
        Resource::CmemChannel,
    ];

    /// Position in [`Resource::ALL`], which is declaration order.
    pub(crate) const fn index(self) -> usize {
        self as usize
    }

    /// Short lowercase name.
    pub const fn name(self) -> &'static str {
        match self {
            Resource::Mxu => "mxu",
            Resource::Vpu => "vpu",
            Resource::Dma => "dma",
            Resource::Ici => "ici",
            Resource::HbmChannel => "hbm",
            Resource::CmemChannel => "cmem",
        }
    }
}

impl fmt::Display for Resource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The result of simulating one plan on one chip.
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// Plan name.
    pub plan: String,
    /// Chip name.
    pub chip: String,
    /// Makespan in seconds.
    pub seconds: f64,
    /// Dynamic energy in joules (calibrated; see the engine docs).
    pub dynamic_joules: f64,
    /// Static (idle-power) energy in joules.
    pub static_joules: f64,
    /// MXU + VPU operations performed.
    pub flops: u64,
    /// Bytes moved over the HBM channel.
    pub hbm_bytes: u64,
    /// Bytes moved over the CMEM channel.
    pub cmem_bytes: u64,
    /// Number of steps executed.
    pub steps: usize,
    busy: [f64; 6],
    pool_sizes: [usize; 6],
    energy_by: [f64; 6],
    /// Total energy in joules (dynamic + static).
    pub energy_joules: f64,
}

impl SimReport {
    pub(crate) fn new(plan: &str, chip: &str) -> SimReport {
        SimReport {
            plan: plan.to_owned(),
            chip: chip.to_owned(),
            seconds: 0.0,
            dynamic_joules: 0.0,
            static_joules: 0.0,
            flops: 0,
            hbm_bytes: 0,
            cmem_bytes: 0,
            steps: 0,
            busy: [0.0; 6],
            pool_sizes: [1; 6],
            energy_by: [0.0; 6],
            energy_joules: 0.0,
        }
    }

    /// Busy time of one resource class summed over its pool, seconds.
    pub fn busy_seconds(&self, r: Resource) -> f64 {
        self.busy[r.index()]
    }

    /// Dynamic energy attributed to one resource class, joules.
    ///
    /// DMA entries carry the memory-transfer energy of the channel they
    /// move data over; the sum over all classes equals
    /// [`SimReport::dynamic_joules`].
    pub fn energy_of(&self, r: Resource) -> f64 {
        self.energy_by[r.index()]
    }

    /// Fraction of *total* energy (incl. static) spent in one class.
    pub fn energy_fraction(&self, r: Resource) -> f64 {
        if self.energy_joules <= 0.0 {
            0.0
        } else {
            self.energy_by[r.index()] / self.energy_joules
        }
    }

    /// Fraction of total energy that is static (idle power x makespan).
    pub fn static_fraction(&self) -> f64 {
        if self.energy_joules <= 0.0 {
            0.0
        } else {
            self.static_joules / self.energy_joules
        }
    }

    /// Records the per-resource busy time and energy (indexed by
    /// [`Resource::index`]) and the unit-pool sizes `[mxu, vpu, dma,
    /// ici]`, and totals the energy. Call after setting
    /// `dynamic_joules` and `static_joules`.
    pub(crate) fn set_totals(
        &mut self,
        busy: [f64; 6],
        energy_by: [f64; 6],
        [mxu, vpu, dma, ici]: [usize; 4],
    ) {
        self.busy = busy;
        self.energy_by = energy_by;
        self.pool_sizes = [mxu, vpu, dma, ici, 1, 1];
        self.energy_joules = self.dynamic_joules + self.static_joules;
    }

    /// Fraction of the makespan during which resource `r` was busy,
    /// averaged over its pool (0 for an unused resource or empty plan).
    pub fn utilization(&self, r: Resource) -> f64 {
        if self.seconds <= 0.0 {
            return 0.0;
        }
        let i = r.index();
        self.busy[i] / (self.seconds * self.pool_sizes[i] as f64)
    }

    /// Achieved operations per second.
    pub fn flops_per_second(&self) -> f64 {
        if self.seconds <= 0.0 {
            0.0
        } else {
            self.flops as f64 / self.seconds
        }
    }

    /// Achieved TFLOPS (convenience).
    pub fn tflops(&self) -> f64 {
        self.flops_per_second() / 1e12
    }

    /// Average power over the run, watts (idle power if nothing ran).
    pub fn average_watts(&self) -> f64 {
        if self.seconds <= 0.0 {
            0.0
        } else {
            self.energy_joules / self.seconds
        }
    }

    /// Achieved operations per joule — the perf/W axis of E5 (scaled by
    /// 1e-9 to GFLOPS/W for readability).
    pub fn gflops_per_watt(&self) -> f64 {
        if self.energy_joules <= 0.0 {
            0.0
        } else {
            self.flops as f64 / self.energy_joules / 1e9
        }
    }

    /// Achieved operational intensity against HBM, FLOP/byte.
    pub fn achieved_intensity(&self) -> f64 {
        if self.hbm_bytes == 0 {
            f64::INFINITY
        } else {
            self.flops as f64 / self.hbm_bytes as f64
        }
    }

    /// The roofline point `(intensity FLOP/B, achieved FLOP/s)` for E4.
    pub fn roofline_point(&self) -> (f64, f64) {
        (self.achieved_intensity(), self.flops_per_second())
    }
}

impl fmt::Display for SimReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} on {}: {:.3} ms, {:.2} TFLOP/s, {:.1} W avg, {:.1} GF/W",
            self.plan,
            self.chip,
            self.seconds * 1e3,
            self.tflops(),
            self.average_watts(),
            self.gflops_per_watt()
        )?;
        write!(f, "  util:")?;
        for r in Resource::ALL {
            write!(f, " {}={:.0}%", r, self.utilization(r) * 100.0)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SimReport {
        let mut r = SimReport::new("p", "c");
        r.seconds = 2.0;
        r.flops = 4_000_000_000_000;
        r.hbm_bytes = 1_000_000_000;
        r.dynamic_joules = 100.0;
        r.static_joules = 100.0;
        let mut busy = [0.0; 6];
        busy[Resource::Mxu.index()] = 1.0;
        let mut energy_by = [0.0; 6];
        energy_by[Resource::Mxu.index()] = 75.0;
        energy_by[Resource::Dma.index()] = 25.0;
        r.set_totals(busy, energy_by, [2, 1, 4, 1]);
        r
    }

    #[test]
    fn index_follows_all() {
        for (i, r) in Resource::ALL.into_iter().enumerate() {
            assert_eq!(r.index(), i);
        }
    }

    #[test]
    fn derived_metrics() {
        let r = sample();
        assert!((r.flops_per_second() - 2e12).abs() < 1.0);
        assert!((r.tflops() - 2.0).abs() < 1e-9);
        assert!((r.average_watts() - 100.0).abs() < 1e-9);
        assert!((r.gflops_per_watt() - 20.0).abs() < 1e-9);
        assert!((r.achieved_intensity() - 4000.0).abs() < 1e-9);
        let (x, y) = r.roofline_point();
        assert!((x - 4000.0).abs() < 1e-9 && (y - 2e12).abs() < 1.0);
    }

    #[test]
    fn energy_breakdown_sums_and_fractions() {
        let r = sample();
        assert_eq!(r.energy_of(Resource::Mxu), 75.0);
        assert_eq!(r.energy_of(Resource::Dma), 25.0);
        let by: f64 = Resource::ALL.iter().map(|&x| r.energy_of(x)).sum();
        assert_eq!(by, r.dynamic_joules);
        assert!((r.energy_fraction(Resource::Mxu) - 0.375).abs() < 1e-12);
        assert!((r.static_fraction() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn utilization_averages_over_pool() {
        let r = sample();
        // 1 busy-second over 2 units x 2 seconds = 25%.
        assert!((r.utilization(Resource::Mxu) - 0.25).abs() < 1e-12);
        assert_eq!(r.utilization(Resource::Vpu), 0.0);
    }

    #[test]
    fn zero_time_report_is_defined() {
        let r = SimReport::new("p", "c");
        assert_eq!(r.flops_per_second(), 0.0);
        assert_eq!(r.average_watts(), 0.0);
        assert_eq!(r.utilization(Resource::Mxu), 0.0);
        assert_eq!(r.gflops_per_watt(), 0.0);
        assert!(r.achieved_intensity().is_infinite());
    }

    #[test]
    fn display_contains_key_numbers() {
        let s = format!("{}", sample());
        assert!(s.contains("TFLOP/s"));
        assert!(s.contains("util:"));
        assert!(s.contains("mxu="));
    }

    #[test]
    fn resource_names_unique() {
        let mut names: Vec<&str> = Resource::ALL.iter().map(|r| r.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Resource::ALL.len());
    }
}
