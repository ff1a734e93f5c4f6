//! The workspace-wide typed error taxonomy for untrusted-input paths.
//!
//! INSTA's front door is a snapshot cloned from an external signoff tool:
//! millions of μ/σ values, levelized CSR indices, and endpoint attributes
//! that can be truncated, mis-levelized, or numerically poisoned before
//! they reach the engine. Every failure on that path maps onto one of four
//! variants:
//!
//! * [`InstaError::Ingest`] — the bytes never became a snapshot: I/O
//!   failures, malformed JSON (with line/column/byte offset), or schema
//!   decode mismatches.
//! * [`InstaError::Validate`] — the snapshot decoded but violates the
//!   structural or numeric contract (see [`crate::validate`]); carries the
//!   full issue list.
//! * [`InstaError::Numeric`] — propagation state got poisoned: the first
//!   non-finite arrival/gradient, localized to a node, level, and
//!   transition.
//! * [`InstaError::Runtime`] — a data-parallel worker panicked; carries
//!   the kernel, level, and chunk range, and whether the serial
//!   re-execution fallback also failed.
//! * [`InstaError::Cancelled`] — a cooperative cancel token fired or a
//!   deadline expired; kernels poll once per timing level, so the
//!   latency between the request and this error is bounded by one
//!   level's work.
//!
//! Incidents that a pass *recovered from* (serial re-execution succeeded)
//! don't surface as errors; they accumulate in the engine's bounded
//! [`IncidentLog`] so a long optimization session can audit every worker
//! panic, not just the most recent one.

use insta_refsta::export::SnapshotError;
use insta_support::json::JsonError;
use std::collections::VecDeque;

/// Which propagation kernel an error originated from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    /// The evaluation forward pass (Algorithm 1).
    Forward,
    /// The differentiable LSE forward pass.
    ForwardLse,
    /// The gradient backward sweep.
    Backward,
}

impl std::fmt::Display for Kernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Kernel::Forward => "forward",
            Kernel::ForwardLse => "forward_lse",
            Kernel::Backward => "backward",
        })
    }
}

/// Which state array a numeric poison was found in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PoisonedArray {
    /// Top-K corner arrivals.
    TopKArrival,
    /// Top-K means.
    TopKMean,
    /// Top-K sigmas.
    TopKSigma,
    /// Smooth (LSE) arrivals.
    LseArrival,
    /// ∂TNS/∂arrival node gradients.
    GradArrival,
    /// ∂TNS/∂delay arc gradients.
    GradArc,
}

impl std::fmt::Display for PoisonedArray {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            PoisonedArray::TopKArrival => "top-k arrival",
            PoisonedArray::TopKMean => "top-k mean",
            PoisonedArray::TopKSigma => "top-k sigma",
            PoisonedArray::LseArrival => "lse arrival",
            PoisonedArray::GradArrival => "arrival gradient",
            PoisonedArray::GradArc => "arc gradient",
        })
    }
}

/// Typed error of the INSTA engine's untrusted-input and runtime paths.
#[derive(Debug)]
pub enum InstaError {
    /// The input never became a snapshot: I/O, malformed JSON (line,
    /// column, and byte offset live in the wrapped [`JsonError`]), or a
    /// schema decode failure.
    Ingest {
        /// What was being ingested (e.g. a file path).
        context: String,
        /// The underlying failure.
        source: SnapshotError,
    },
    /// The snapshot decoded but violates the engine's structural/numeric
    /// contract.
    Validate(crate::validate::ValidationReport),
    /// Propagation state is numerically poisoned.
    Numeric {
        /// The kernel or check that found the poison.
        kernel: Kernel,
        /// Which array holds the first non-finite value.
        array: PoisonedArray,
        /// Renumbered (level-major) node index.
        node: u32,
        /// Original graph node id (for correlation with the design).
        orig_node: u32,
        /// Timing level of the node.
        level: usize,
        /// Transition (0 = rise, 1 = fall).
        rf: u8,
        /// The offending value.
        value: f64,
    },
    /// A data-parallel worker panicked.
    Runtime(RuntimeIncident),
    /// A cooperative cancellation (token fired or deadline expired) was
    /// observed at a per-level poll point.
    Cancelled {
        /// The kernel that observed the cancellation.
        kernel: Kernel,
        /// The timing level about to be processed when it was observed.
        level: usize,
        /// Wall time between the pass starting and the poll that observed
        /// the cancellation.
        elapsed: std::time::Duration,
    },
}

/// Everything known about one worker panic: where it happened and whether
/// the serial re-execution fallback restored the level.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuntimeIncident {
    /// The kernel whose worker failed.
    pub kernel: Kernel,
    /// The timing level being processed.
    pub level: usize,
    /// Node range of the failed chunk.
    pub chunk: std::ops::Range<usize>,
    /// The panic payload, if it was a string.
    pub message: String,
    /// Whether the serial re-execution of the level also failed
    /// (`true` means the engine state for that level is unusable).
    pub serial_retry_failed: bool,
}

impl std::fmt::Display for RuntimeIncident {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "worker panic in {} kernel at level {}, nodes {}..{}{}: {}",
            self.kernel,
            self.level,
            self.chunk.start,
            self.chunk.end,
            if self.serial_retry_failed {
                " (serial re-execution also failed)"
            } else {
                " (recovered by serial re-execution)"
            },
            self.message
        )
    }
}

impl InstaError {
    /// Convenience constructor for ingest failures with context.
    pub fn ingest(context: impl Into<String>, source: SnapshotError) -> Self {
        InstaError::Ingest {
            context: context.into(),
            source,
        }
    }

    /// Short machine-readable category name (log/metric key).
    pub fn category(&self) -> &'static str {
        match self {
            InstaError::Ingest { .. } => "ingest",
            InstaError::Validate(_) => "validate",
            InstaError::Numeric { .. } => "numeric",
            InstaError::Runtime(_) => "runtime",
            InstaError::Cancelled { .. } => "cancelled",
        }
    }

    /// Whether this error means engine state may be half-updated — i.e. a
    /// session must roll back. `Ingest`/`Validate` are
    /// raised *before* anything is mutated and leave the engine untouched.
    pub fn poisons_state(&self) -> bool {
        matches!(
            self,
            InstaError::Numeric { .. } | InstaError::Runtime(_) | InstaError::Cancelled { .. }
        )
    }
}

impl std::fmt::Display for InstaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InstaError::Ingest { context, source } => {
                write!(f, "ingest failed ({context}): {source}")
            }
            InstaError::Validate(report) => write!(f, "snapshot validation failed: {report}"),
            InstaError::Numeric {
                kernel,
                array,
                node,
                orig_node,
                level,
                rf,
                value,
            } => write!(
                f,
                "numeric poison in {kernel}: {array} = {value} at node {node} \
                 (orig {orig_node}), level {level}, {}",
                if *rf == 0 { "rise" } else { "fall" }
            ),
            InstaError::Runtime(incident) => incident.fmt(f),
            InstaError::Cancelled {
                kernel,
                level,
                elapsed,
            } => write!(
                f,
                "cancelled in {kernel} kernel at level {level} after {:.3} ms",
                elapsed.as_secs_f64() * 1e3
            ),
        }
    }
}

/// A request-level failure recorded by the service layer: an admission
/// rejection, a deadline cancellation/overshoot, a malformed protocol
/// frame, or an isolated handler panic. Unlike [`RuntimeIncident`]s these
/// never originate inside a kernel — they carry the request id the daemon
/// assigned to the failure instead of a kernel/level coordinate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceIncident {
    /// Client-assigned request id (`0` when the request never decoded far
    /// enough to have one).
    pub request_id: u64,
    /// Short machine-readable rejection class (e.g. `"overloaded"`,
    /// `"deadline"`, `"protocol"`, `"panic"`).
    pub category: &'static str,
    /// Human-readable detail.
    pub message: String,
}

impl std::fmt::Display for ServiceIncident {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "service incident ({}) on request {}: {}",
            self.category, self.request_id, self.message
        )
    }
}

/// One entry of the [`IncidentLog`]: either a kernel worker panic or a
/// service-layer request failure.
#[derive(Debug, Clone, PartialEq)]
pub enum Incident {
    /// A data-parallel worker panicked (recovered or fatal).
    Worker(RuntimeIncident),
    /// The service layer rejected or failed a request.
    Service(ServiceIncident),
}

impl Incident {
    /// The worker incident, if this is one.
    pub fn as_worker(&self) -> Option<&RuntimeIncident> {
        match self {
            Incident::Worker(w) => Some(w),
            Incident::Service(_) => None,
        }
    }

    /// The service incident, if this is one.
    pub fn as_service(&self) -> Option<&ServiceIncident> {
        match self {
            Incident::Service(s) => Some(s),
            Incident::Worker(_) => None,
        }
    }

    /// Short machine-readable class name.
    pub fn category(&self) -> &'static str {
        match self {
            Incident::Worker(_) => "worker",
            Incident::Service(s) => s.category,
        }
    }
}

impl std::fmt::Display for Incident {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Incident::Worker(w) => w.fmt(f),
            Incident::Service(s) => s.fmt(f),
        }
    }
}

/// A bounded ring of [`Incident`]s with monotonic counters.
///
/// A long optimization session can trip many recovered worker panics, and
/// a long-lived daemon rejects many requests under overload; keeping only
/// the most recent one silently overwrites history. The log keeps the
/// newest `capacity` incidents (the engine's: [`IncidentLog::CAPACITY`];
/// other owners pick theirs with [`IncidentLog::with_capacity`]) and
/// counts everything ever recorded,
/// so `total() - len()` is the number dropped.
#[derive(Debug, Clone)]
pub struct IncidentLog {
    ring: VecDeque<Incident>,
    capacity: usize,
    total: u64,
}

impl Default for IncidentLog {
    fn default() -> Self {
        Self::with_capacity(Self::CAPACITY)
    }
}

impl IncidentLog {
    /// Default retention bound; older incidents are dropped (but counted).
    pub const CAPACITY: usize = 32;

    /// A log retaining at most `capacity` incidents (≥ 1).
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            ring: VecDeque::new(),
            capacity: capacity.max(1),
            total: 0,
        }
    }

    /// The retention bound this log was built with.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Appends an incident, evicting the oldest past capacity.
    pub fn record(&mut self, incident: Incident) {
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
        }
        self.ring.push_back(incident);
        self.total += 1;
    }

    /// Appends a worker-panic incident (the kernel funnel).
    pub(crate) fn record_worker(&mut self, incident: RuntimeIncident) {
        self.record(Incident::Worker(incident));
    }

    /// Appends a service-layer incident (the daemon funnel).
    pub fn record_service(&mut self, incident: ServiceIncident) {
        self.record(Incident::Service(incident));
    }

    /// Retained incidents, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &Incident> {
        self.ring.iter()
    }

    /// Retained worker-panic incidents, oldest first.
    pub fn workers(&self) -> impl Iterator<Item = &RuntimeIncident> {
        self.ring.iter().filter_map(Incident::as_worker)
    }

    /// Retained service incidents, oldest first.
    pub fn services(&self) -> impl Iterator<Item = &ServiceIncident> {
        self.ring.iter().filter_map(Incident::as_service)
    }

    /// Number of retained incidents.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Whether nothing has ever been recorded *or* retained.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Incidents ever recorded (monotonic; survives eviction).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Incidents evicted by the capacity bound.
    pub fn dropped(&self) -> u64 {
        self.total - self.ring.len() as u64
    }

    /// The newest retained incident.
    pub fn last(&self) -> Option<&Incident> {
        self.ring.back()
    }

    /// The newest retained worker-panic incident.
    pub fn last_worker(&self) -> Option<&RuntimeIncident> {
        self.ring.iter().rev().find_map(Incident::as_worker)
    }
}

impl std::error::Error for InstaError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            InstaError::Ingest { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<SnapshotError> for InstaError {
    fn from(e: SnapshotError) -> Self {
        InstaError::ingest("snapshot", e)
    }
}

impl From<JsonError> for InstaError {
    fn from(e: JsonError) -> Self {
        InstaError::ingest("snapshot json", SnapshotError::Format(e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_failure_site() {
        let e = InstaError::Runtime(RuntimeIncident {
            kernel: Kernel::Forward,
            level: 7,
            chunk: 512..1024,
            message: "index out of bounds".into(),
            serial_retry_failed: false,
        });
        let text = e.to_string();
        assert!(text.contains("level 7"), "{text}");
        assert!(text.contains("512..1024"), "{text}");
        assert!(text.contains("recovered"), "{text}");
        assert_eq!(e.category(), "runtime");
    }

    #[test]
    fn cancelled_reports_the_poll_site_and_poisons_state() {
        let e = InstaError::Cancelled {
            kernel: Kernel::ForwardLse,
            level: 12,
            elapsed: std::time::Duration::from_millis(4),
        };
        assert_eq!(e.category(), "cancelled");
        assert!(e.poisons_state());
        let text = e.to_string();
        assert!(text.contains("forward_lse"), "{text}");
        assert!(text.contains("level 12"), "{text}");
    }

    #[test]
    fn validate_errors_do_not_poison_state() {
        let e = InstaError::Validate(crate::validate::ValidationReport::default());
        assert!(!e.poisons_state());
    }

    #[test]
    fn incident_log_bounds_retention_and_counts_everything() {
        let mk = |i: usize| RuntimeIncident {
            kernel: Kernel::Forward,
            level: i,
            chunk: 0..1,
            message: format!("panic {i}"),
            serial_retry_failed: false,
        };
        let mut log = IncidentLog::default();
        assert_eq!(log.capacity(), IncidentLog::CAPACITY);
        assert!(log.is_empty());
        for i in 0..IncidentLog::CAPACITY + 10 {
            log.record(Incident::Worker(mk(i)));
        }
        assert_eq!(log.len(), IncidentLog::CAPACITY);
        assert_eq!(log.total(), (IncidentLog::CAPACITY + 10) as u64);
        assert_eq!(log.dropped(), 10);
        // Oldest retained is the 11th recorded; newest is the last.
        assert_eq!(
            log.workers().next().expect("front").level,
            10
        );
        assert_eq!(
            log.last_worker().expect("back").level,
            IncidentLog::CAPACITY + 9
        );
    }

    #[test]
    fn incident_log_capacity_is_configurable_and_mixes_kinds() {
        let mut log = IncidentLog::with_capacity(3);
        assert_eq!(log.capacity(), 3);
        log.record_service(ServiceIncident {
            request_id: 7,
            category: "overloaded",
            message: "queue full".into(),
        });
        log.record(Incident::Worker(RuntimeIncident {
            kernel: Kernel::Forward,
            level: 1,
            chunk: 0..1,
            message: "boom".into(),
            serial_retry_failed: false,
        }));
        log.record_service(ServiceIncident {
            request_id: 9,
            category: "deadline",
            message: "overshoot".into(),
        });
        assert_eq!(log.len(), 3);
        assert_eq!(log.services().count(), 2);
        assert_eq!(log.workers().count(), 1);
        assert_eq!(log.last().expect("kept").category(), "deadline");
        assert_eq!(
            log.last().unwrap().as_service().expect("service").request_id,
            9
        );
        let text = log.services().next().expect("front").to_string();
        assert!(text.contains("request 7"), "{text}");
        // A fourth record evicts the oldest; the worker incident survives.
        log.record_service(ServiceIncident {
            request_id: 11,
            category: "protocol",
            message: "bad frame".into(),
        });
        assert_eq!(log.len(), 3);
        assert_eq!(log.dropped(), 1);
        assert_eq!(log.last_worker().expect("kept").level, 1);
        // Capacity 0 clamps to 1 instead of panicking on record.
        let mut tiny = IncidentLog::with_capacity(0);
        assert_eq!(tiny.capacity(), 1);
        tiny.record_service(ServiceIncident {
            request_id: 1,
            category: "overloaded",
            message: String::new(),
        });
        assert_eq!(tiny.len(), 1);
    }

    #[test]
    fn ingest_preserves_the_json_position() {
        let parse_err = insta_support::json::parse("{ bad").unwrap_err();
        let offset = parse_err.offset;
        let e = InstaError::from(parse_err);
        assert_eq!(e.category(), "ingest");
        let text = e.to_string();
        assert!(text.contains(&format!("byte {offset}")), "{text}");
        assert!(std::error::Error::source(&e).is_some());
    }
}
