//! The content-aware dispatcher: routes each request to a server by
//! consistent hashing, with hot-set replication and health-aware
//! failover.
//!
//! Cold files (the long tail) live on exactly one owner — replicating
//! the whole catalog would defeat the per-server disk capacity that
//! motivates sharding in the first place. The hot set (`FileId <
//! hot_files`, matching the fleet's cacheable workload) gets
//! `replication` owners, so when a server dies the popular bytes are
//! already on a replica and clients resume immediately; cold files
//! fall through to the next server on the ring (every server is built
//! from the same `Catalog`, so the fallback serves correct content —
//! in deployment terms, it fetches from origin).

use crate::ring::HashRing;
use dcn_store::FileId;

/// Dispatcher's view of one server.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Health {
    Healthy,
    /// Finishing in-flight work, taking no new requests.
    Draining,
    Down,
}

/// Routing policy + health table.
#[derive(Debug)]
pub struct Dispatcher {
    ring: HashRing,
    health: Vec<Health>,
    /// Owners for hot files (≥1; ≥2 gives kill-tolerance).
    replication: usize,
    /// `FileId < hot_files` is the replicated hot set.
    hot_files: u64,
    /// Requests routed to a non-primary owner (health fallback).
    pub fallback_routes: u64,
    /// Requests that left the owner set entirely (cold file, owner
    /// down → next live server on the ring).
    pub overflow_routes: u64,
    pub routed: u64,
}

impl Dispatcher {
    #[must_use]
    pub fn new(n_servers: usize, vnodes: usize, replication: usize, hot_files: u64) -> Self {
        Dispatcher {
            ring: HashRing::new(n_servers, vnodes),
            health: vec![Health::Healthy; n_servers],
            replication: replication.max(1),
            hot_files,
            fallback_routes: 0,
            overflow_routes: 0,
            routed: 0,
        }
    }

    #[must_use]
    pub fn n_servers(&self) -> usize {
        self.ring.n_servers()
    }

    #[must_use]
    pub fn health(&self, server: usize) -> Health {
        self.health[server]
    }

    pub fn set_health(&mut self, server: usize, h: Health) {
        self.health[server] = h;
    }

    /// The replica set a file *should* live on (ignores health).
    #[must_use]
    pub fn owners(&self, file: FileId) -> Vec<u32> {
        let k = if file.0 < self.hot_files {
            self.replication
        } else {
            1
        };
        self.ring.owners(file, k)
    }

    /// Pick the serving server for `file`, or `None` if every server
    /// is down/draining. Preference order: healthy owners (primary
    /// first), then any healthy server walking the ring past the
    /// owner set.
    pub fn route(&mut self, file: FileId) -> Option<usize> {
        let owners = self.owners(file);
        for (i, &s) in owners.iter().enumerate() {
            if self.health[s as usize] == Health::Healthy {
                self.routed += 1;
                if i > 0 {
                    self.fallback_routes += 1;
                }
                return Some(s as usize);
            }
        }
        // Owner set entirely unavailable: walk the whole ring.
        for &s in &self.ring.owners(file, self.ring.n_servers()) {
            if self.health[s as usize] == Health::Healthy {
                self.routed += 1;
                self.overflow_routes += 1;
                return Some(s as usize);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routes_to_primary_when_healthy() {
        let mut d = Dispatcher::new(4, 64, 2, 100);
        for f in 0..50 {
            let owners = d.owners(FileId(f));
            assert_eq!(d.route(FileId(f)), Some(owners[0] as usize));
        }
        assert_eq!(d.fallback_routes, 0);
    }

    #[test]
    fn hot_files_fail_over_to_replica() {
        let mut d = Dispatcher::new(4, 64, 2, 1_000);
        let f = FileId(7); // hot: two owners
        let owners = d.owners(f);
        assert_eq!(owners.len(), 2);
        d.set_health(owners[0] as usize, Health::Down);
        assert_eq!(d.route(f), Some(owners[1] as usize));
        assert_eq!(d.fallback_routes, 1);
        assert_eq!(d.overflow_routes, 0);
    }

    #[test]
    fn cold_files_overflow_past_dead_owner() {
        let mut d = Dispatcher::new(4, 64, 2, 0); // nothing hot
        let f = FileId(7);
        let owners = d.owners(f);
        assert_eq!(owners.len(), 1, "cold file: single owner");
        d.set_health(owners[0] as usize, Health::Down);
        let s = d.route(f).expect("another server serves it");
        assert_ne!(s, owners[0] as usize);
        assert_eq!(d.overflow_routes, 1);
    }

    #[test]
    fn draining_server_gets_no_new_requests() {
        let mut d = Dispatcher::new(2, 64, 1, 0);
        d.set_health(0, Health::Draining);
        d.set_health(1, Health::Healthy);
        for f in 0..40 {
            assert_eq!(d.route(FileId(f)), Some(1));
        }
    }

    #[test]
    fn all_down_routes_nowhere() {
        let mut d = Dispatcher::new(2, 64, 1, 0);
        d.set_health(0, Health::Down);
        d.set_health(1, Health::Down);
        assert_eq!(d.route(FileId(1)), None);
    }
}
