//! Per-rank traffic and time accounting.
//!
//! Every experiment in the reconstructed evaluation ultimately reads these
//! counters: message counts and bytes drive the communication-volume figures
//! (F6), superstep counts explain bucket fusion (F4), and the virtual-clock
//! components split compute from communication in the breakdown figure.

/// The JSON number rule, under the name reports have always used.
pub use crate::json::number as json_f64;

/// Counters one rank accumulates over a run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct NetStats {
    /// Point-to-point messages sent by application code.
    pub user_msgs: u64,
    /// Application payload bytes sent.
    pub user_bytes: u64,
    /// Messages sent on behalf of collectives (barriers, reductions, …).
    pub coll_msgs: u64,
    /// Collective payload bytes sent.
    pub coll_bytes: u64,
    /// Number of barrier operations entered.
    pub barriers: u64,
    /// Number of collective operations completed, each counted once: an
    /// allreduce is one (it was two, a reduce and a broadcast, while it was
    /// built from those), and so is the allreduce inside a barrier.
    pub collectives: u64,
    /// Virtual seconds spent in modeled compute.
    pub compute_s: f64,
    /// Virtual seconds spent blocked on communication (clock jumps while
    /// waiting for messages, plus per-message overheads).
    pub comm_s: f64,
    /// Frames retransmitted by the reliable transport (fault injection).
    pub retransmits: u64,
    /// Retransmit timer expirations (every failed delivery attempt: data
    /// lost, frame corrupted, or ack lost).
    pub timeouts: u64,
    /// Frames discarded by receiver-side sequence-number dedup (network
    /// duplicates and ack-loss-induced retransmits of delivered data).
    pub dup_frames_dropped: u64,
    /// Frames corrupted in flight and rejected by the receiver's frame check.
    pub corrupt_frames: u64,
    /// Frames delivered out of order and masked by sequence order.
    pub reordered_frames: u64,
    /// Injected rank stall windows that triggered.
    pub stall_events: u64,
    /// Virtual seconds lost to injected rank stalls.
    pub stall_s: f64,
    /// Injected process crashes this rank suffered (crash injection).
    pub crashes: u64,
    /// Superstep-boundary checkpoints this rank took.
    pub checkpoints: u64,
    /// Bytes of checkpoint state written (local snapshot, before buddy
    /// replication doubles the traffic).
    pub checkpoint_bytes: u64,
    /// Rollbacks to the last checkpoint this rank performed.
    pub restores: u64,
    /// Supersteps re-executed during restore-and-replay.
    pub replayed_supersteps: u64,
}

impl NetStats {
    /// Total messages of both classes.
    pub fn total_msgs(&self) -> u64 {
        self.user_msgs + self.coll_msgs
    }

    /// Total bytes of both classes.
    pub fn total_bytes(&self) -> u64 {
        self.user_bytes + self.coll_bytes
    }

    /// Element-wise accumulate (for cross-rank aggregation).
    pub fn merge(&mut self, other: &NetStats) {
        self.user_msgs += other.user_msgs;
        self.user_bytes += other.user_bytes;
        self.coll_msgs += other.coll_msgs;
        self.coll_bytes += other.coll_bytes;
        self.barriers += other.barriers;
        self.collectives += other.collectives;
        self.compute_s += other.compute_s;
        self.comm_s += other.comm_s;
        self.retransmits += other.retransmits;
        self.timeouts += other.timeouts;
        self.dup_frames_dropped += other.dup_frames_dropped;
        self.corrupt_frames += other.corrupt_frames;
        self.reordered_frames += other.reordered_frames;
        self.stall_events += other.stall_events;
        self.stall_s += other.stall_s;
        self.crashes += other.crashes;
        self.checkpoints += other.checkpoints;
        self.checkpoint_bytes += other.checkpoint_bytes;
        self.restores += other.restores;
        self.replayed_supersteps += other.replayed_supersteps;
    }

    /// True when any fault-injection / reliable-transport counter is
    /// nonzero — i.e. the run actually exercised the lossy path.
    pub fn saw_faults(&self) -> bool {
        self.retransmits != 0
            || self.timeouts != 0
            || self.dup_frames_dropped != 0
            || self.corrupt_frames != 0
            || self.reordered_frames != 0
            || self.stall_events != 0
    }

    /// True when any crash-injection / recovery counter is nonzero — i.e.
    /// the run actually exercised checkpoint/restart.
    pub fn saw_crashes(&self) -> bool {
        self.crashes != 0 || self.restores != 0 || self.replayed_supersteps != 0
    }
}

crate::json_fields! {
    NetStats:
    user_msgs, user_bytes, coll_msgs, coll_bytes, barriers, collectives, compute_s, comm_s,
    retransmits, timeouts, dup_frames_dropped, corrupt_frames, reordered_frames, stall_events,
    stall_s, crashes, checkpoints, checkpoint_bytes, restores, replayed_supersteps,
}

/// Aggregate a set of per-rank stats into totals.
pub fn aggregate(all: &[NetStats]) -> NetStats {
    let mut out = NetStats::default();
    for s in all {
        out.merge(s);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::ToJson;

    #[test]
    fn merge_accumulates_everything() {
        let a = NetStats {
            user_msgs: 1,
            user_bytes: 10,
            coll_msgs: 2,
            coll_bytes: 20,
            barriers: 3,
            collectives: 4,
            compute_s: 0.5,
            comm_s: 0.25,
            retransmits: 5,
            timeouts: 6,
            dup_frames_dropped: 7,
            corrupt_frames: 8,
            reordered_frames: 9,
            stall_events: 2,
            stall_s: 0.125,
            crashes: 1,
            checkpoints: 11,
            checkpoint_bytes: 1024,
            restores: 2,
            replayed_supersteps: 13,
        };
        let mut b = a.clone();
        b.merge(&a);
        assert_eq!(b.user_msgs, 2);
        assert_eq!(b.total_bytes(), 60);
        assert_eq!(b.barriers, 6);
        assert!((b.compute_s - 1.0).abs() < 1e-12);
        assert_eq!(b.retransmits, 10);
        assert_eq!(b.timeouts, 12);
        assert_eq!(b.dup_frames_dropped, 14);
        assert_eq!(b.corrupt_frames, 16);
        assert_eq!(b.reordered_frames, 18);
        assert_eq!(b.stall_events, 4);
        assert!((b.stall_s - 0.25).abs() < 1e-12);
        assert_eq!(b.crashes, 2);
        assert_eq!(b.checkpoints, 22);
        assert_eq!(b.checkpoint_bytes, 2048);
        assert_eq!(b.restores, 4);
        assert_eq!(b.replayed_supersteps, 26);
        assert!(b.saw_faults());
        assert!(b.saw_crashes());
        assert!(!NetStats::default().saw_faults());
        assert!(!NetStats::default().saw_crashes());
    }

    #[test]
    fn json_includes_transport_counters() {
        let s = NetStats {
            retransmits: 3,
            corrupt_frames: 1,
            ..NetStats::default()
        };
        let j = s.to_json();
        assert!(j.contains("\"retransmits\":3"), "{j}");
        assert!(j.contains("\"corrupt_frames\":1"), "{j}");
        assert!(j.contains("\"stall_s\":0"), "{j}");
        assert!(j.contains("\"crashes\":0"), "{j}");
        assert!(j.contains("\"checkpoint_bytes\":0"), "{j}");
    }

    #[test]
    fn aggregate_of_empty_is_default() {
        assert_eq!(aggregate(&[]), NetStats::default());
    }
}
