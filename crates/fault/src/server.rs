//! Server-plane faults for the `openserdes-serve` front door — the
//! same philosophy as the link-plane taxonomy in the crate root:
//! impairments as *data*, so every harness that injects them stays
//! seeded and bit-reproducible.
//!
//! This module owns only the plan — which fault, in what order, with
//! what parameters. The drivers (the serve loopback tests and the
//! `bench serve --chaos` phase) turn each event into real sockets and
//! hostile bytes, then prove the server billed every one to exactly
//! one `serve.*` counter with zero hangs.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One kind of injected server fault. Each kind documents the typed
/// behavior it must produce and the `serve.*` counter that accounts
/// for it ([`ServerFaultKind::counter`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServerFaultKind {
    /// Open a connection, send a valid length prefix and part of the
    /// payload, then drop the connection. The server must bill one
    /// `serve.conn_errors` (mid-frame EOF) and free the slot.
    DropMidFrame,
    /// Announce `promised` payload bytes, deliver fewer, then close
    /// cleanly — a truncated frame. Billed to `serve.conn_errors`.
    TruncatedFrame {
        /// Announced payload length; the driver sends about half.
        promised: u32,
    },
    /// A hostile length prefix announcing more than the protocol's
    /// `MAX_FRAME`. The server must reply with a typed error frame,
    /// close cleanly, and bill `serve.protocol_errors`.
    OversizedPrefix {
        /// The announced (absurd) payload length in bytes.
        announced: u64,
    },
    /// Start a frame, then stall mid-payload for `hold_ms` — the
    /// slow-loris probe. With a read idle limit below `hold_ms` the
    /// server must disconnect and bill `serve.timeouts`.
    StalledReader {
        /// How long the driver holds the connection half-fed.
        hold_ms: u64,
    },
    /// Submit a job engineered to panic inside the engine. The worker
    /// must isolate it (`catch_unwind`), answer a typed error frame,
    /// and bill `serve.panics_isolated`.
    WorkerPanic,
    /// A burst of `jobs` submissions whose deadline is already expired
    /// (`deadline_ms: 0`). Every one must come back as a typed
    /// `DeadlineExceeded`, billing `serve.deadline_expired` each,
    /// without burning a worker.
    DeadlineStorm {
        /// Submissions in the burst.
        jobs: u64,
    },
    /// Open `conns` connections beyond the server's cap. Each arrival
    /// over the cap must get a typed rejection frame and a close,
    /// billing `serve.conns_rejected`.
    ConnFlood {
        /// Connections the driver opens on top of its baseline.
        conns: u64,
    },
}

impl ServerFaultKind {
    /// Stable lower-snake name for reports and JSON keys.
    pub fn tag(self) -> &'static str {
        match self {
            ServerFaultKind::DropMidFrame => "drop_mid_frame",
            ServerFaultKind::TruncatedFrame { .. } => "truncated_frame",
            ServerFaultKind::OversizedPrefix { .. } => "oversized_prefix",
            ServerFaultKind::StalledReader { .. } => "stalled_reader",
            ServerFaultKind::WorkerPanic => "worker_panic",
            ServerFaultKind::DeadlineStorm { .. } => "deadline_storm",
            ServerFaultKind::ConnFlood { .. } => "conn_flood",
        }
    }

    /// The `serve.*` counter that must account for this fault — the
    /// accounting contract the chaos harness asserts.
    pub fn counter(self) -> &'static str {
        match self {
            ServerFaultKind::DropMidFrame => "serve.conn_errors",
            ServerFaultKind::TruncatedFrame { .. } => "serve.conn_errors",
            ServerFaultKind::OversizedPrefix { .. } => "serve.protocol_errors",
            ServerFaultKind::StalledReader { .. } => "serve.timeouts",
            ServerFaultKind::WorkerPanic => "serve.panics_isolated",
            ServerFaultKind::DeadlineStorm { .. } => "serve.deadline_expired",
            ServerFaultKind::ConnFlood { .. } => "serve.conns_rejected",
        }
    }

    /// How many increments of [`ServerFaultKind::counter`] one event
    /// of this kind must produce.
    fn expected_hits(self) -> u64 {
        match self {
            ServerFaultKind::DeadlineStorm { jobs } => jobs,
            ServerFaultKind::ConnFlood { conns } => conns,
            _ => 1,
        }
    }
}

/// One server fault in a plan, ordered by `step`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerFaultEvent {
    /// Position in the plan; drivers execute events in `step` order.
    pub step: u64,
    /// The fault to inject at this step.
    pub kind: ServerFaultKind,
}

/// A seeded, ordered server fault plan. Same seed + same length ⇒ the
/// same events in the same order, on any worker count, forever.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerFaultPlan {
    seed: u64,
    events: Vec<ServerFaultEvent>,
}

impl ServerFaultPlan {
    /// An empty plan carrying its seed.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            events: Vec::new(),
        }
    }

    /// The seed the plan was generated from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The events in execution order.
    pub fn events(&self) -> &[ServerFaultEvent] {
        &self.events
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the plan is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Appends an event, stamping its step.
    pub fn push(&mut self, kind: ServerFaultKind) {
        let step = self.events.len() as u64;
        self.events.push(ServerFaultEvent { step, kind });
    }

    /// Total expected counter increments, summed per counter name in
    /// first-seen order — the accounting ledger the harness checks
    /// against the server's `serve.*` counters.
    pub fn expected_ledger(&self) -> Vec<(&'static str, u64)> {
        let mut ledger: Vec<(&'static str, u64)> = Vec::new();
        for event in &self.events {
            let counter = event.kind.counter();
            match ledger.iter_mut().find(|(name, _)| *name == counter) {
                Some((_, hits)) => *hits += event.kind.expected_hits(),
                None => ledger.push((counter, event.kind.expected_hits())),
            }
        }
        ledger
    }
}

/// Generates the standard seeded chaos plan of `n` events: every fault
/// kind appears at least once (for `n ≥ 7`), the rest drawn seeded.
/// Deterministic in `(seed, n)`.
pub fn server_campaign(seed: u64, n: usize) -> ServerFaultPlan {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5E12_F001);
    let mut plan = ServerFaultPlan::new(seed);
    let menu = |rng: &mut StdRng, slot: usize| match slot {
        0 => ServerFaultKind::DropMidFrame,
        1 => ServerFaultKind::TruncatedFrame {
            promised: 64 + rng.gen_range(0..192u64) as u32,
        },
        2 => ServerFaultKind::OversizedPrefix {
            announced: 32 * 1024 * 1024 + rng.gen_range(0..1024u64),
        },
        3 => ServerFaultKind::StalledReader {
            hold_ms: 40 + rng.gen_range(0..40u64),
        },
        4 => ServerFaultKind::WorkerPanic,
        5 => ServerFaultKind::DeadlineStorm {
            jobs: 2 + rng.gen_range(0..3u64),
        },
        _ => ServerFaultKind::ConnFlood {
            conns: 1 + rng.gen_range(0..2u64),
        },
    };
    for i in 0..n {
        // First seven slots cover the full taxonomy, then seeded picks.
        let slot = if i < 7 {
            i
        } else {
            rng.gen_range(0..7u64) as usize
        };
        plan.push(menu(&mut rng, slot));
    }
    plan
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn campaign_is_seed_deterministic() {
        let a = server_campaign(7, 12);
        let b = server_campaign(7, 12);
        assert_eq!(a, b);
        let c = server_campaign(8, 12);
        assert_ne!(a.events(), c.events(), "different seed, different plan");
    }

    #[test]
    fn campaign_covers_the_full_taxonomy() {
        let plan = server_campaign(1, 7);
        let tags: Vec<&str> = plan.events().iter().map(|e| e.kind.tag()).collect();
        for tag in [
            "drop_mid_frame",
            "truncated_frame",
            "oversized_prefix",
            "stalled_reader",
            "worker_panic",
            "deadline_storm",
            "conn_flood",
        ] {
            assert!(tags.contains(&tag), "missing {tag}");
        }
    }

    #[test]
    fn ledger_sums_hits_per_counter() {
        let mut plan = ServerFaultPlan::new(0);
        plan.push(ServerFaultKind::DropMidFrame);
        plan.push(ServerFaultKind::TruncatedFrame { promised: 64 });
        plan.push(ServerFaultKind::DeadlineStorm { jobs: 3 });
        let ledger = plan.expected_ledger();
        assert_eq!(
            ledger,
            vec![("serve.conn_errors", 2), ("serve.deadline_expired", 3)]
        );
    }
}
