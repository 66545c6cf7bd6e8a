//! Lane-width configuration of a campaign.
//!
//! There is one simulation engine: the compiled bit-parallel kernel
//! ([`crate::kernel::CompiledKernel`] evaluated by
//! [`crate::sim::ParallelSim`]) at 64–512 lanes. Its reference is the
//! serial single-fault oracle in [`crate::serial`].
//!
//! The lane width is an explicit argument: the default is 256 lanes,
//! and the binaries take `--lanes` (parsed by
//! [`EngineConfig::parse_lanes`]).

/// The engine name recorded in stats, ledger entries and job specs.
pub const ENGINE_NAME: &str = "compiled";

/// Resolved engine configuration for a campaign run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineConfig {
    /// u64 words per net (1, 2, 4 or 8 — 64–512 lanes).
    pub lane_words: usize,
}

impl Default for EngineConfig {
    /// 256 lanes.
    fn default() -> Self {
        EngineConfig { lane_words: 4 }
    }
}

impl EngineConfig {
    /// The engine at a given lane count (64/128/256/512).
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is not a supported width.
    pub fn compiled(lanes: usize) -> EngineConfig {
        EngineConfig {
            lane_words: Self::words_for_lanes(lanes).expect("unsupported lane count"),
        }
    }

    /// Effective lanes per batch.
    pub fn lanes(&self) -> usize {
        64 * self.lane_words
    }

    /// Engine name as recorded in stats/ledger ([`ENGINE_NAME`]).
    pub fn name(&self) -> &'static str {
        ENGINE_NAME
    }

    /// Map a lane count to words, if supported.
    pub fn words_for_lanes(lanes: usize) -> Option<usize> {
        match lanes {
            64 => Some(1),
            128 => Some(2),
            256 => Some(4),
            512 => Some(8),
            _ => None,
        }
    }

    /// Parse a lane count from its CLI spelling.
    pub fn parse_lanes(s: &str) -> Result<usize, String> {
        let n: usize = s
            .trim()
            .parse()
            .map_err(|_| format!("bad lane count '{s}'"))?;
        Self::words_for_lanes(n)
            .map(|_| n)
            .ok_or_else(|| format!("unsupported lane count {n} (expected 64|128|256|512)"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_256_lanes() {
        let c = EngineConfig::default();
        assert_eq!(c.lanes(), 256);
        assert_eq!(c.name(), "compiled");
    }

    #[test]
    fn lane_parsing_rejects_odd_widths() {
        assert_eq!(EngineConfig::parse_lanes("128"), Ok(128));
        assert!(EngineConfig::parse_lanes("100").is_err());
        assert!(EngineConfig::parse_lanes("zero").is_err());
        assert_eq!(EngineConfig::words_for_lanes(512), Some(8));
        assert_eq!(EngineConfig::words_for_lanes(96), None);
        assert_eq!(EngineConfig::compiled(64).lanes(), 64);
    }
}
