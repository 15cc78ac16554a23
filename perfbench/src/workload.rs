//! What the runner needs from a workload, and the work counters a call
//! reports for the per-layer metrics.

use std::collections::BTreeMap;

use crate::trace::Tracer;
use crate::util::Digest;

/// One benchmark workload: inputs drawn from a seed, and one call into
/// the library per input, run as a closed loop by the runner.
pub trait Workload: Sized {
    type Input;
    type Output;

    /// Unit of `units_per_s`.
    const UNIT: &'static str;
    /// Calls every run makes, however slow the machine; `sim_digest`
    /// covers exactly these first calls, so it does not depend on speed.
    const MIN_CALLS: usize;

    /// Builds catalogs and fixtures, draws the input list from `seed`
    /// and validates every input.
    ///
    /// # Errors
    ///
    /// A message naming the fixture or input that is invalid.
    fn setup(seed: u64) -> Result<Self, String>;

    /// The inputs, in call order (the runner cycles through them).
    fn inputs(&self) -> &[Self::Input];

    /// One timed call into the library.
    ///
    /// # Errors
    ///
    /// The library's error, as text.
    fn call<T: Tracer>(&self, input: &Self::Input, t: &mut T) -> Result<Self::Output, String>;

    /// Checks one result, outside the timed call.
    ///
    /// # Errors
    ///
    /// What is wrong with the result.
    fn check(&self, input: &Self::Input, out: &Self::Output) -> Result<(), String>;

    /// Work units the call completed (design points or requests).
    fn units(out: &Self::Output) -> u64;

    /// Requests one call simulated (0 where there are none); the
    /// denominator of `serving.bytes_per_request`.
    fn requests(out: &Self::Output) -> u64;

    /// Feeds every simulated statistic of `out` into `d`.
    fn digest(out: &Self::Output, d: &mut Digest);

    /// Adds the call's work counters.
    fn count(out: &Self::Output, c: &mut Counters);
}

/// Work counters summed over the calls of a run, plus running maxima.
#[derive(Debug, Default, Clone)]
pub struct Counters {
    pub sums: BTreeMap<&'static str, f64>,
    pub maxes: BTreeMap<&'static str, f64>,
}

impl Counters {
    pub fn add(&mut self, name: &'static str, v: u64) {
        *self.sums.entry(name).or_default() += v as f64;
    }

    pub fn max(&mut self, name: &'static str, v: u64) {
        let m = self.maxes.entry(name).or_default();
        *m = m.max(v as f64);
    }
}
