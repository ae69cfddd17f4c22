//! `libRSS`: the composition meta-library (Section 4.1, Figure 3).
//!
//! A set of RSS (RSC) services only guarantees a *global* RSS (RSC) order if
//! clients issue a real-time fence at the previous service before their first
//! transaction at a different service. `libRSS` automates this: each
//! service's client library registers itself (with a fence callback) and
//! notifies the meta-library before starting a transaction; the meta-library
//! invokes the previous service's fence exactly when the client switches
//! services. No application changes are required.
//!
//! The rule itself lives in one place, [`FencePlanner`]: the composed session
//! runner of the `regular-session` crate asks it per lane and executes the
//! fence as a protocol operation, and [`LibRss`] is Figure 3's callback table
//! over one planner process.
//!
//! The crate also provides the causal-context propagation helper of
//! Section 4.2: when application processes interact out of band (e.g. a Web
//! server responding to a browser that then talks to a different server), the
//! serialized [`CausalContext`] carries the minimum-read-timestamp metadata and
//! the name of the last service so the receiving process's `libRSS` instance
//! can continue enforcing causality.
//!
//! # Example
//!
//! ```
//! use regular_librss::LibRss;
//! use std::sync::atomic::{AtomicU32, Ordering};
//! use std::sync::Arc;
//!
//! let kv_fences = Arc::new(AtomicU32::new(0));
//! let mut librss = LibRss::new();
//! let counter = kv_fences.clone();
//! librss.register_service("kv", move || {
//!     counter.fetch_add(1, Ordering::SeqCst);
//! });
//! librss.register_service("queue", || {});
//!
//! librss.start_transaction("kv").unwrap();     // first transaction: no fence
//! librss.start_transaction("kv").unwrap();     // same service: no fence
//! librss.start_transaction("queue").unwrap();  // switch: fence the kv store
//! assert_eq!(kv_fences.load(Ordering::SeqCst), 1);
//! ```

pub mod planner;

pub use planner::{FencePlanner, FenceStats};

/// Errors returned by the meta-library.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LibRssError {
    /// `start_transaction` named a service that was never registered.
    UnknownService(String),
}

/// A registered service's real-time fence.
type Fence = Box<dyn FnMut() + Send>;

/// The per-process composition meta-library (Figure 3).
#[derive(Default)]
pub struct LibRss {
    /// Registered services in registration order; a service's position is
    /// its index in the planner.
    services: Vec<(String, Fence)>,
    /// This process's fence decisions, as the planner's one process `()`.
    planner: FencePlanner<()>,
}

impl LibRss {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The position of a registered service.
    fn position(&self, name: &str) -> Option<usize> {
        self.services.iter().position(|(n, _)| n == name)
    }

    /// `RegisterService(name, fence_f)`: registers a service's fence
    /// callback. Re-registering a name replaces its callback.
    pub fn register_service(
        &mut self,
        name: impl Into<String>,
        fence: impl FnMut() + Send + 'static,
    ) {
        let name = name.into();
        let fence: Fence = Box::new(fence);
        match self.services.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = fence,
            None => self.services.push((name, fence)),
        }
    }

    /// `StartTransaction(name)`: must be called by a service's client library
    /// before starting a transaction. If the previous transaction went to a
    /// different service, that service's real-time fence is invoked first.
    pub fn start_transaction(&mut self, name: &str) -> Result<(), LibRssError> {
        let idx =
            self.position(name).ok_or_else(|| LibRssError::UnknownService(name.to_string()))?;
        if let Some(prev) = self.planner.on_transaction((), idx) {
            (self.services[prev].1)();
        }
        Ok(())
    }

    /// The service the last transaction was started at.
    pub fn last_service(&self) -> Option<&str> {
        self.planner.last_service(&()).map(|idx| self.services[idx].0.as_str())
    }

    /// Fence statistics (how many transaction starts required a fence).
    pub fn stats(&self) -> FenceStats {
        self.planner.stats()
    }

    /// Exports the causal context to send to another process (Section 4.2).
    pub fn export_context(&self, min_timestamp: u64) -> CausalContext {
        CausalContext { last_service: self.last_service().map(str::to_string), min_timestamp }
    }

    /// Imports a causal context received from another process: the next
    /// transaction will fence the sender's last service if it differs.
    pub fn import_context(&mut self, ctx: &CausalContext) {
        if let Some(idx) = ctx.last_service.as_deref().and_then(|svc| self.position(svc)) {
            self.planner.import_context((), idx);
        }
    }
}

/// Causality metadata propagated between application processes out of band
/// (Section 4.2), e.g. through a context-propagation framework.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CausalContext {
    /// The last RSS service the sending process interacted with.
    pub last_service: Option<String>,
    /// The sender's minimum read timestamp (service-specific meaning, e.g.
    /// Spanner-RSS's `t_min`).
    pub min_timestamp: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::sync::Arc;

    fn counting_registry() -> (LibRss, Arc<AtomicU32>, Arc<AtomicU32>) {
        let kv_fences = Arc::new(AtomicU32::new(0));
        let mq_fences = Arc::new(AtomicU32::new(0));
        let mut lib = LibRss::new();
        let k = kv_fences.clone();
        lib.register_service("kv", move || {
            k.fetch_add(1, Ordering::SeqCst);
        });
        let m = mq_fences.clone();
        lib.register_service("queue", move || {
            m.fetch_add(1, Ordering::SeqCst);
        });
        (lib, kv_fences, mq_fences)
    }

    #[test]
    fn fences_only_on_service_switch() {
        let (mut lib, kv, mq) = counting_registry();
        lib.start_transaction("kv").unwrap();
        lib.start_transaction("kv").unwrap();
        lib.start_transaction("queue").unwrap();
        lib.start_transaction("queue").unwrap();
        lib.start_transaction("kv").unwrap();
        assert_eq!(kv.load(Ordering::SeqCst), 1, "kv fenced once, when switching to the queue");
        assert_eq!(mq.load(Ordering::SeqCst), 1, "queue fenced once, when switching back");
        let stats = lib.stats();
        assert_eq!(stats.executed, 2);
        assert_eq!(stats.elided, 3);
    }

    #[test]
    fn reregistering_a_name_replaces_its_callback() {
        let (mut lib, kv, _) = counting_registry();
        let replacement = Arc::new(AtomicU32::new(0));
        let r = replacement.clone();
        lib.register_service("kv", move || {
            r.fetch_add(1, Ordering::SeqCst);
        });
        lib.start_transaction("kv").unwrap();
        lib.start_transaction("queue").unwrap();
        assert_eq!(replacement.load(Ordering::SeqCst), 1, "the switch fences the new closure");
        assert_eq!(kv.load(Ordering::SeqCst), 0, "the replaced closure never runs");
        assert_eq!(lib.last_service(), Some("queue"));
    }

    #[test]
    fn unknown_service_is_rejected() {
        let (mut lib, _, _) = counting_registry();
        assert_eq!(
            lib.start_transaction("blob"),
            Err(LibRssError::UnknownService("blob".to_string()))
        );
    }

    #[test]
    fn context_propagation_transfers_last_service() {
        let (mut sender, kv, _) = counting_registry();
        sender.start_transaction("kv").unwrap();
        let ctx = sender.export_context(42);
        assert_eq!(ctx.last_service.as_deref(), Some("kv"));
        assert_eq!(ctx.min_timestamp, 42);

        let (mut receiver, rkv, _) = counting_registry();
        receiver.import_context(&ctx);
        // The receiver's first transaction goes to the queue, so the kv fence
        // (inherited from the sender's context) must run in the receiver.
        receiver.start_transaction("queue").unwrap();
        assert_eq!(rkv.load(Ordering::SeqCst), 1);
        // The sender's own callback is untouched by the receiver's fence.
        assert_eq!(kv.load(Ordering::SeqCst), 0);
    }
}
