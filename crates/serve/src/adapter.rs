//! The names only the frozen end-to-end benchmark (`crates/bench/src/bin/e2e`)
//! still calls. Each forwards in one line to the production route, so the
//! benchmark measures the same work; the benchmark's next revision deletes
//! this module together with its callers. Nothing else names these
//! (`scripts/ci.sh`, adapter gate).

use crate::wal::Durability;
use insta_engine::{EngineDurableState, TimingSnapshot};
use std::io;

impl Durability {
    /// [`checkpoint`](Durability::checkpoint) of `state`. The snapshot is
    /// not read: the state carries the slacks it was captured with.
    #[doc(hidden)]
    pub fn write_checkpoint(
        &self,
        state: &EngineDurableState,
        _snapshot: &TimingSnapshot,
    ) -> io::Result<Option<u64>> {
        self.checkpoint(state)
    }
}
