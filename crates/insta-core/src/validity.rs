//! The validity ledger: which derived product is current with respect to
//! which annotations.
//!
//! Everything the engine computes is a function of one annotation table.
//! Each state of that table has a *generation*; each of the three derived
//! products — setup Top-K, endpoint report, LSE buffers — is stamped with
//! the generation it was computed from and is current while the two are
//! equal. So a re-annotation makes every product stale in one write, a
//! rollback makes the products of the restored table current again, and no
//! product has a flag of its own. (A what-if lane never sees the ledger:
//! its annotation writes are back before the call returns.) The snapshot
//! rows carry no stamp: a filled store equals the Top-K arrays whenever
//! they are current (`crate::snapshot`, "One rule").
//!
//! **A generation is never reused.** New ones come from an allocator
//! (`issued`) that a rollback does not rewind: [`Validity::rewind`] puts
//! the begin-time generation back, and the next annotation write still gets
//! a number no stamp has ever held. A product stamped on an abandoned
//! timeline can therefore never compare equal to a later table.
//!
//! **The rollback rule**, which a session's undo
//! ([`Txn::undo`](crate::incremental::Txn::undo)) executes.
//! [`covered`](Validity::covered) ⇒ the undo log is the whole way back.
//! Uncovered ⇒ the log restores the annotations and one `try_propagate`
//! re-syncs, iff the session's own passes all completed. Either way Top-K
//! is current afterwards only if it was at begin.

/// One state of the annotation table.
type Gen = u64;

/// The ledger (module docs). Plain data; the methods below are the only
/// code that writes a stamp, each named after the one event it books.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub(crate) struct Validity {
    /// The generation of the annotations the engine holds now.
    gen: Gen,
    /// The highest generation ever handed out.
    issued: Gen,
    /// Whether the cone's undo log holds every Top-K write of the session.
    covered: bool,
    /// Setup Top-K arrays: `None` while a whole-array pass rewrites them,
    /// after one failed, and after a hold pass put early corners there.
    topk: Option<Gen>,
    /// The endpoint report (a hold pass leaves it alone).
    report: Option<Gen>,
    /// LSE arrivals and weights; `None` while a pass rewrites them and
    /// after one failed.
    lse: Option<Gen>,
}

impl Validity {
    /// Whether the Top-K arrays are the setup pass's output for the current
    /// annotations — and the report with them: every pass that completes
    /// the arrays writes the report too.
    pub(crate) fn topk_current(&self) -> bool {
        self.topk == Some(self.gen)
    }

    pub(crate) fn report_current(&self) -> bool {
        self.report == Some(self.gen)
    }

    /// Whether the LSE buffers belong to the current annotations.
    pub(crate) fn lse_current(&self) -> bool {
        self.lse == Some(self.gen)
    }

    pub(crate) fn covered(&self) -> bool {
        self.covered
    }

    /// What a reader can tell apart: the current generation and the stamps.
    #[cfg(any(test, feature = "scalar-reference"))]
    pub(crate) fn observable(&self) -> [u64; 4] {
        let stamp = |s: Option<Gen>| s.unwrap_or(u64::MAX);
        [
            self.gen,
            stamp(self.topk),
            stamp(self.report),
            stamp(self.lse),
        ]
    }

    /// An annotation write: a generation nothing was ever stamped with.
    pub(crate) fn annotated(&mut self) {
        self.issued += 1;
        self.gen = self.issued;
    }

    /// A session opens on an emptied undo log, which so far misses nothing.
    pub(crate) fn session_began(&mut self) {
        self.covered = true;
    }

    /// A sweep outgrew the log's budget and gave its recomputes up.
    pub(crate) fn log_gave_up(&mut self) {
        self.covered = false;
    }

    /// A pass is about to rewrite the Top-K arrays whole, whether it
    /// succeeds or not: they are nobody's until a setup pass completes, and
    /// no undo log covers the write.
    pub(crate) fn begin_full_pass(&mut self) {
        self.topk = None;
        self.covered = false;
    }

    /// A full setup pass or a cone sweep completed and evaluated its report.
    pub(crate) fn setup_done(&mut self) {
        self.topk = Some(self.gen);
        self.report = Some(self.gen);
    }

    /// A differentiable forward pass is about to rewrite the LSE buffers.
    pub(crate) fn begin_lse(&mut self) {
        self.lse = None;
    }

    /// It completed.
    pub(crate) fn lse_done(&mut self) {
        self.lse = Some(self.gen);
    }

    /// A session is taken back to `begin`, the ledger as its first mutating
    /// call found it, the undo log already copied back (module docs, the
    /// rollback rule). `resynced`: the arrays are the begin-time arrays
    /// again — put back by the log, or recomputed from the restored
    /// annotations. The LSE stamp is left alone: one written on the
    /// abandoned timeline no longer equals the restored generation, one
    /// naming the begin-time table equals it again.
    pub(crate) fn rewind(&mut self, begin: &Validity, resynced: bool) {
        self.gen = begin.gen;
        self.topk = begin.topk.filter(|_| resynced);
        self.report = begin.report;
    }
}
