//! Optimization toggles for the distributed kernel.

use g500_graph::Weight;

/// Relaxation direction policy of the distributed kernel. It governs both
/// phases of a bucket: every light-edge iteration, and the one heavy-edge
/// phase that follows them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Direction {
    /// Always push: active vertices send updates along out-edges, light
    /// arcs per iteration and heavy arcs once the bucket has settled.
    Push,
    /// Always pull. Light: the frontier is broadcast and every vertex scans
    /// its (symmetric) adjacency for frontier neighbors. Heavy: every
    /// vertex scans its heavy arcs and fetches the distances of the sources
    /// it met from their owners. Both scans stop at the first weight that
    /// can no longer improve the vertex.
    Pull,
    /// Choose whichever side's estimated cost is lower — per light
    /// iteration (frontier light arcs pushed, against unsettled light arcs
    /// scanned plus the frontier broadcast) and per heavy phase (heavy arcs
    /// of the settled set pushed, against unsettled heavy arcs fetched plus
    /// the reply round).
    Hybrid,
}

/// The optimization stack of the distributed delta-stepping kernel. Each
/// field is independently toggleable so experiments can ablate one at a
/// time; [`OptConfig::all_on`] is the paper configuration and
/// [`OptConfig::all_off`] the unoptimized strawman.
#[derive(Clone, Copy, Debug)]
pub struct OptConfig {
    /// Bucket width Δ. `None` prices it from the graph's totals and the
    /// machine ([`machine_delta`](crate::delta::machine_delta)).
    pub delta: Option<Weight>,
    /// Aggregate relaxation requests per destination rank (vs one message
    /// per request).
    pub coalescing: bool,
    /// Sort outgoing requests by target and ship only the min per target.
    pub dedup: bool,
    /// Gap+varint compression of the update payload.
    pub compression: bool,
    /// Local cascading within a bucket and fusing the sparse bucket tail.
    pub bucket_fusion: bool,
    /// Push/pull/hybrid relaxation.
    pub direction: Direction,
}

impl Default for OptConfig {
    fn default() -> Self {
        Self::all_on()
    }
}

impl OptConfig {
    /// The full optimization stack — the paper configuration.
    pub fn all_on() -> Self {
        Self {
            delta: None,
            coalescing: true,
            dedup: true,
            compression: true,
            bucket_fusion: true,
            direction: Direction::Hybrid,
        }
    }

    /// Everything off: plain bulk-synchronous delta-stepping with naive
    /// messaging (one message per relaxation) and a fixed Δ.
    pub fn all_off() -> Self {
        Self {
            delta: Some(0.1),
            coalescing: false,
            dedup: false,
            compression: false,
            bucket_fusion: false,
            direction: Direction::Push,
        }
    }

    /// Baseline for ablations: everything on except naive messaging is
    /// *not* usable at scale, so ablations start from `all_on` and disable
    /// one feature. These helpers return the config with one knob flipped.
    pub fn without_coalescing(mut self) -> Self {
        self.coalescing = false;
        self
    }

    /// Disable update deduplication.
    pub fn without_dedup(mut self) -> Self {
        self.dedup = false;
        self
    }

    /// Disable payload compression.
    pub fn without_compression(mut self) -> Self {
        self.compression = false;
        self
    }

    /// Disable bucket fusion.
    pub fn without_fusion(mut self) -> Self {
        self.bucket_fusion = false;
        self
    }

    /// Force a direction policy.
    pub fn with_direction(mut self, d: Direction) -> Self {
        self.direction = d;
        self
    }

    /// Fix Δ explicitly.
    pub fn with_delta(mut self, delta: Weight) -> Self {
        self.delta = Some(delta);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_differ() {
        let on = OptConfig::all_on();
        let off = OptConfig::all_off();
        assert!(on.coalescing && !off.coalescing);
        assert!(on.compression && !off.compression);
        assert_eq!(off.direction, Direction::Push);
    }

    #[test]
    fn builders_flip_single_knobs() {
        let c = OptConfig::all_on().without_dedup();
        assert!(!c.dedup && c.coalescing && c.compression);
        let c = OptConfig::all_on().with_delta(0.25);
        assert_eq!(c.delta, Some(0.25));
        let c = OptConfig::all_on().with_direction(Direction::Pull);
        assert_eq!(c.direction, Direction::Pull);
    }
}
