//! The per-server control plane both stacks own: admission at SYN,
//! 503-while-shedding, live-connection accounting and the per-core
//! I/O tuner. The policy lives here once; each server computes the
//! [`ResourceSnapshot`] of its own scarce resources (DMA pool or
//! buffer cache, NVMe queues) and hands it in.

use crate::autotune::IoTuner;
use crate::overload::{AdmissionConfig, OverloadState, ResourceSnapshot};
use dcn_packet::FlowId;
use std::ops::{Index, IndexMut};

/// Everything the control loop keeps per core.
#[derive(Debug)]
pub struct CoreControl {
    pub overload: OverloadState,
    pub tuner: IoTuner,
    pub live_conns: usize,
}

impl CoreControl {
    #[must_use]
    pub fn new(tuner: IoTuner) -> Self {
        CoreControl {
            overload: OverloadState::default(),
            tuner,
            live_conns: 0,
        }
    }
}

/// One server's control plane: the admission knobs plus one
/// [`CoreControl`] per core (indexable by core).
#[derive(Debug)]
pub struct ServerControl {
    pub admission: AdmissionConfig,
    cores: Vec<CoreControl>,
}

impl ServerControl {
    /// `n_cores` cores, each with an I/O tuner (tuning iff `autotune`)
    /// that starts at `window` and is seeded from `seed` and its core
    /// index.
    #[must_use]
    pub fn new(
        admission: AdmissionConfig,
        autotune: bool,
        window: u64,
        seed: u64,
        n_cores: usize,
    ) -> Self {
        ServerControl {
            admission,
            cores: (0..n_cores)
                .map(|c| {
                    CoreControl::new(IoTuner::new(autotune, window, seed ^ ((c as u64) << 20)))
                })
                .collect(),
        }
    }

    /// The core RSS steers `flow` to.
    #[must_use]
    pub fn core_of_flow(&self, flow: FlowId) -> usize {
        (flow.rss_hash() as usize) % self.cores.len()
    }

    /// Admission decision for one SYN on `core`; refreshes the
    /// watermark latch from `snap` as a side effect.
    pub fn admit_syn(&mut self, core: usize, snap: ResourceSnapshot) -> bool {
        self.cores[core].overload.admit(&self.admission, snap)
    }

    /// Should a request arriving now on `core` be deferred with a 503?
    /// Refreshes the latch from `snap` first, so the decision reflects
    /// the present, not the last sweep.
    pub fn defer_request(&mut self, core: usize, snap: ResourceSnapshot) -> bool {
        let overload = &mut self.cores[core].overload;
        overload.observe(&self.admission, snap);
        overload.is_shedding()
    }

    /// Is any core shedding (resource latch held or walking the
    /// degradation ladder) or at its connection cap? The cluster
    /// dispatcher treats a shedding server like `Draining`.
    #[must_use]
    pub fn is_shedding(&self) -> bool {
        self.cores
            .iter()
            .any(|c| c.overload.is_shedding() || c.live_conns >= self.admission.max_conns_per_core)
    }

    /// Live connections across all cores.
    #[must_use]
    pub fn live_conns(&self) -> usize {
        self.cores.iter().map(|c| c.live_conns).sum()
    }

    pub fn note_conn_opened(&mut self, core: usize) {
        self.cores[core].live_conns += 1;
    }

    pub fn note_conn_closed(&mut self, core: usize) {
        let c = &mut self.cores[core];
        c.live_conns = c.live_conns.saturating_sub(1);
    }
}

impl Index<usize> for ServerControl {
    type Output = CoreControl;
    fn index(&self, core: usize) -> &CoreControl {
        &self.cores[core]
    }
}

impl IndexMut<usize> for ServerControl {
    fn index_mut(&mut self, core: usize) -> &mut CoreControl {
        &mut self.cores[core]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctl(cores: usize) -> ServerControl {
        ServerControl::new(AdmissionConfig::default(), false, 14_480, 0, cores)
    }

    fn snap(conns: usize, pool_free_frac: f64) -> ResourceSnapshot {
        ResourceSnapshot {
            conns,
            pool_free_frac,
            sq_occupancy: 0.0,
        }
    }

    #[test]
    fn admits_then_sheds_under_pool_pressure() {
        let mut c = ctl(2);
        assert!(c.admit_syn(0, snap(0, 0.9)));
        c.note_conn_opened(0);
        assert!(!c.defer_request(0, snap(1, 0.9)));
        assert!(!c.is_shedding());
        assert!(!c.admit_syn(0, snap(1, 0.0)), "pool exhausted: refuse");
        assert!(c.defer_request(0, snap(1, 0.0)));
        assert!(c.is_shedding());
        // The other core is independent.
        assert_eq!(c[1].live_conns, 0);
    }

    #[test]
    fn connection_cap_counts_as_shedding() {
        let mut c = ctl(1);
        c.admission.max_conns_per_core = 1;
        c.note_conn_opened(0);
        assert!(c.is_shedding());
        c.note_conn_closed(0);
        assert!(!c.is_shedding());
    }

    #[test]
    fn conn_accounting_saturates_at_zero() {
        let mut c = ctl(1);
        c.note_conn_closed(0);
        assert_eq!(c.live_conns(), 0);
        c.note_conn_opened(0);
        c.note_conn_closed(0);
        assert_eq!(c.live_conns(), 0);
    }
}
