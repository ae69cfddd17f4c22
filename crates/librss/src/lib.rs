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
//! Service names are interned to dense [`ServiceIdx`] ids at registration, so
//! the transaction-start hot path performs no allocation: the last service is
//! tracked as an index, and callers that hold on to the [`ServiceIdx`]
//! returned by [`LibRss::register_service`] can use
//! [`LibRss::start_transaction_at`] to skip the name lookup entirely.
//!
//! The crate also provides the causal-context propagation helper of
//! Section 4.2: when application processes interact out of band (e.g. a Web
//! server responding to a browser that then talks to a different server), the
//! serialized [`CausalContext`] carries the minimum-read-timestamp metadata and
//! the name of the last service so the receiving process's `libRSS` instance
//! can continue enforcing causality.
//!
//! For simulated deployments where a fence is an asynchronous protocol
//! operation rather than a synchronous callback, [`planner::FencePlanner`]
//! exposes the same decision logic (fence the previous service exactly on a
//! service switch) in a pure form; the `regular-session` crate's composed
//! session runner drives it.
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

use std::collections::HashMap;
use std::sync::{Mutex, MutexGuard, PoisonError};

use regular_core::fence::{FenceStats, FencedService};

pub mod planner;

pub use planner::FencePlanner;

/// Dense identifier of a registered service, assigned by
/// [`LibRss::register_service`] in registration order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ServiceIdx(pub usize);

/// Errors returned by the meta-library.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LibRssError {
    /// `start_transaction` named a service that was never registered (or was
    /// unregistered).
    UnknownService(String),
}

/// One registered service: its name and fence callback. Unregistered slots
/// keep their name (indices stay stable) but lose the callback.
struct ServiceSlot {
    name: String,
    fence: Option<Box<dyn FnMut() + Send>>,
}

/// The per-process composition meta-library (Figure 3).
#[derive(Default)]
pub struct LibRss {
    slots: Vec<ServiceSlot>,
    /// Name → dense index; entries are removed on unregistration.
    lookup: HashMap<String, usize>,
    /// The service the last transaction was started at, as a dense index.
    last_service: Option<usize>,
    stats: FenceStats,
}

impl LibRss {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// `RegisterService(name, fence_f)`: registers a service's fence callback
    /// and returns its dense id. Re-registering a name replaces the callback
    /// and keeps the id.
    pub fn register_service(
        &mut self,
        name: impl Into<String>,
        fence: impl FnMut() + Send + 'static,
    ) -> ServiceIdx {
        let name = name.into();
        if let Some(&idx) = self.lookup.get(&name) {
            self.slots[idx].fence = Some(Box::new(fence));
            return ServiceIdx(idx);
        }
        let idx = self.slots.len();
        self.lookup.insert(name.clone(), idx);
        self.slots.push(ServiceSlot { name, fence: Some(Box::new(fence)) });
        ServiceIdx(idx)
    }

    /// Registers a [`FencedService`] implementation by wrapping it in the
    /// callback form (the service is moved into the registry).
    pub fn register_fenced_service<S: FencedService + Send + 'static>(
        &mut self,
        mut service: S,
    ) -> ServiceIdx {
        let name = service.service_name().to_string();
        self.register_service(name, move || service.fence())
    }

    /// `UnregisterService(name)`: removes a service from the registry.
    pub fn unregister_service(&mut self, name: &str) -> bool {
        let Some(idx) = self.lookup.remove(name) else { return false };
        self.slots[idx].fence = None;
        if self.last_service == Some(idx) {
            self.last_service = None;
        }
        true
    }

    /// Resolves a service name to its dense id, if registered.
    pub fn service_idx(&self, name: &str) -> Option<ServiceIdx> {
        self.lookup.get(name).copied().map(ServiceIdx)
    }

    /// `StartTransaction(name)`: must be called by a service's client library
    /// before starting a transaction. If the previous transaction went to a
    /// different service, that service's real-time fence is invoked first.
    pub fn start_transaction(&mut self, name: &str) -> Result<(), LibRssError> {
        match self.lookup.get(name).copied() {
            Some(idx) => {
                self.start_at(idx);
                Ok(())
            }
            None => Err(LibRssError::UnknownService(name.to_string())),
        }
    }

    /// [`LibRss::start_transaction`] by dense id, skipping the name lookup —
    /// the allocation- and hash-free hot path for callers that kept the id
    /// returned by [`LibRss::register_service`].
    pub fn start_transaction_at(&mut self, service: ServiceIdx) -> Result<(), LibRssError> {
        let idx = service.0;
        if idx >= self.slots.len() || self.slots[idx].fence.is_none() {
            let name =
                self.slots.get(idx).map(|s| s.name.clone()).unwrap_or_else(|| format!("#{idx}"));
            return Err(LibRssError::UnknownService(name));
        }
        self.start_at(idx);
        Ok(())
    }

    fn start_at(&mut self, idx: usize) {
        match self.last_service {
            Some(prev) if prev != idx => {
                if let Some(fence) = self.slots[prev].fence.as_mut() {
                    fence();
                    self.stats.record_executed();
                } else {
                    // The previous service was unregistered; there is nothing
                    // left to fence.
                    self.stats.record_elided();
                }
            }
            _ => self.stats.record_elided(),
        }
        self.last_service = Some(idx);
    }

    /// The registered service names, sorted.
    pub fn services(&self) -> Vec<String> {
        let mut names: Vec<String> =
            self.slots.iter().filter(|s| s.fence.is_some()).map(|s| s.name.clone()).collect();
        names.sort();
        names
    }

    /// The service the last transaction was started at.
    pub fn last_service(&self) -> Option<&str> {
        self.last_service.map(|idx| self.slots[idx].name.as_str())
    }

    /// Fence statistics (how many transaction starts required a fence).
    pub fn stats(&self) -> FenceStats {
        self.stats
    }

    /// Exports the causal context to send to another process (Section 4.2).
    pub fn export_context(&self, min_timestamp: u64) -> CausalContext {
        CausalContext { last_service: self.last_service().map(str::to_string), min_timestamp }
    }

    /// Imports a causal context received from another process: the next
    /// transaction will fence the sender's last service if it differs.
    pub fn import_context(&mut self, ctx: &CausalContext) {
        if let Some(svc) = &ctx.last_service {
            if let Some(&idx) = self.lookup.get(svc) {
                self.last_service = Some(idx);
            }
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

/// A thread-safe wrapper for sharing one registry between application threads,
/// exposing the full Section 4.1/4.2 workflow.
#[derive(Default)]
pub struct SharedLibRss {
    inner: Mutex<LibRss>,
}

impl SharedLibRss {
    /// Creates an empty shared registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Locks the registry. A panic while it was held leaves the registry as
    /// that call left it, and every later call proceeds on that state rather
    /// than panicking too.
    fn lock(&self) -> MutexGuard<'_, LibRss> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// See [`LibRss::register_service`].
    pub fn register_service(
        &self,
        name: impl Into<String>,
        fence: impl FnMut() + Send + 'static,
    ) -> ServiceIdx {
        self.lock().register_service(name, fence)
    }

    /// See [`LibRss::register_fenced_service`].
    pub fn register_fenced_service<S: FencedService + Send + 'static>(
        &self,
        service: S,
    ) -> ServiceIdx {
        self.lock().register_fenced_service(service)
    }

    /// See [`LibRss::unregister_service`].
    pub fn unregister_service(&self, name: &str) -> bool {
        self.lock().unregister_service(name)
    }

    /// See [`LibRss::start_transaction`].
    pub fn start_transaction(&self, name: &str) -> Result<(), LibRssError> {
        self.lock().start_transaction(name)
    }

    /// See [`LibRss::start_transaction_at`].
    pub fn start_transaction_at(&self, service: ServiceIdx) -> Result<(), LibRssError> {
        self.lock().start_transaction_at(service)
    }

    /// See [`LibRss::export_context`].
    pub fn export_context(&self, min_timestamp: u64) -> CausalContext {
        self.lock().export_context(min_timestamp)
    }

    /// See [`LibRss::import_context`].
    pub fn import_context(&self, ctx: &CausalContext) {
        self.lock().import_context(ctx)
    }

    /// See [`LibRss::last_service`]. Returns an owned name because the lock is
    /// released before returning.
    pub fn last_service(&self) -> Option<String> {
        self.lock().last_service().map(str::to_string)
    }

    /// See [`LibRss::stats`].
    pub fn stats(&self) -> FenceStats {
        self.lock().stats()
    }
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
    fn dense_ids_skip_the_name_lookup() {
        let (mut lib, kv, _) = counting_registry();
        let kv_idx = lib.service_idx("kv").unwrap();
        let queue_idx = lib.service_idx("queue").unwrap();
        assert_eq!(kv_idx, ServiceIdx(0));
        assert_eq!(queue_idx, ServiceIdx(1));
        lib.start_transaction_at(kv_idx).unwrap();
        lib.start_transaction_at(queue_idx).unwrap();
        assert_eq!(kv.load(Ordering::SeqCst), 1);
        assert_eq!(lib.last_service(), Some("queue"));
        assert!(lib.start_transaction_at(ServiceIdx(99)).is_err());
    }

    #[test]
    fn reregistering_a_name_keeps_its_id() {
        let (mut lib, _, _) = counting_registry();
        let again = lib.register_service("kv", || {});
        assert_eq!(again, ServiceIdx(0));
        assert_eq!(lib.services(), vec!["kv".to_string(), "queue".to_string()]);
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
    fn unregister_removes_service() {
        let (mut lib, _, _) = counting_registry();
        assert_eq!(lib.services(), vec!["kv".to_string(), "queue".to_string()]);
        assert!(lib.unregister_service("kv"));
        assert!(!lib.unregister_service("kv"));
        assert_eq!(lib.services(), vec!["queue".to_string()]);
        assert!(lib.start_transaction("kv").is_err());
    }

    #[test]
    fn unregistered_previous_service_is_not_fenced() {
        let (mut lib, kv, _) = counting_registry();
        lib.start_transaction("kv").unwrap();
        assert!(lib.unregister_service("kv"));
        // The switch to the queue has nothing left to fence; it must not panic
        // or invoke the dropped callback.
        lib.start_transaction("queue").unwrap();
        assert_eq!(kv.load(Ordering::SeqCst), 0);
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

    #[test]
    fn fenced_service_trait_registration() {
        struct Svc {
            fences: u32,
        }
        impl FencedService for Svc {
            fn service_name(&self) -> &str {
                "svc"
            }
            fn fence(&mut self) {
                self.fences += 1;
            }
        }
        let mut lib = LibRss::new();
        lib.register_fenced_service(Svc { fences: 0 });
        lib.register_service("other", || {});
        lib.start_transaction("svc").unwrap();
        lib.start_transaction("other").unwrap();
        assert_eq!(lib.stats().executed, 1);
        assert_eq!(lib.last_service(), Some("other"));
    }

    #[test]
    fn shared_registry_is_thread_safe() {
        let shared = Arc::new(SharedLibRss::new());
        let count = Arc::new(AtomicU32::new(0));
        let c = count.clone();
        shared.register_service("kv", move || {
            c.fetch_add(1, Ordering::SeqCst);
        });
        shared.register_service("queue", || {});
        let mut handles = Vec::new();
        for _ in 0..4 {
            let s = shared.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..100 {
                    s.start_transaction("kv").unwrap();
                    s.start_transaction("queue").unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let stats = shared.stats();
        assert_eq!(stats.executed + stats.elided, 800);
        assert!(count.load(Ordering::SeqCst) > 0);
    }

    #[test]
    fn shared_registry_full_workflow_passthroughs() {
        let sender = SharedLibRss::new();
        sender.register_service("kv", || {});
        sender.register_service("queue", || {});
        sender.start_transaction("kv").unwrap();
        assert_eq!(sender.last_service().as_deref(), Some("kv"));
        let ctx = sender.export_context(7);

        let fenced = Arc::new(AtomicU32::new(0));
        let receiver = SharedLibRss::new();
        let f = fenced.clone();
        receiver.register_service("kv", move || {
            f.fetch_add(1, Ordering::SeqCst);
        });
        receiver.register_service("queue", || {});
        receiver.import_context(&ctx);
        receiver.start_transaction("queue").unwrap();
        assert_eq!(fenced.load(Ordering::SeqCst), 1, "imported context forces the kv fence");

        assert!(receiver.unregister_service("kv"));
        assert!(receiver.start_transaction("kv").is_err());
    }
}
