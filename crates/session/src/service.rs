//! The protocol side of the session contract.
//!
//! A [`Service`] is a named store front-end living inside a client node: it
//! accepts typed [`SessionOp`]s for a lane, exchanges protocol messages with
//! the store's server nodes, and reports completions as
//! [`CompletedRecord`]s. `regular-spanner` and `regular-gryff` implement it;
//! [`crate::SessionRunner`] and [`crate::ComposedRunner`] drive it.
//!
//! # Timer-tag convention
//!
//! A runner and its service(s) share one engine timer namespace. Runners
//! allocate **even** tags ([`runner_tag`]); services allocate **odd** tags
//! ([`service_tag`]). `Node::on_timer` dispatches on the low bit.

use std::marker::PhantomData;

use regular_core::types::ServiceId;
use regular_sim::engine::{Context, NodeId};

use crate::op::SessionOp;
use crate::record::{CompletedRecord, LaneId};

/// Allocates the next runner-owned (even) timer tag.
pub fn runner_tag(counter: &mut u64) -> u64 {
    let tag = *counter << 1;
    *counter += 1;
    tag
}

/// Allocates the next service-owned (odd) timer tag.
pub fn service_tag(counter: &mut u64) -> u64 {
    let tag = (*counter << 1) | 1;
    *counter += 1;
    tag
}

/// A protocol client front-end serving session operations.
///
/// Implementations must:
/// * eventually report exactly one non-orphan [`CompletedRecord`] per
///   submitted operation (retries are internal),
/// * only allocate timer tags with [`service_tag`],
/// * tolerate `drain_completed` being called at any point.
pub trait Service: Send + 'static {
    /// The protocol's wire message type.
    type Msg: 'static;

    /// The service id recorded on this service's operations.
    fn service_id(&self) -> ServiceId;

    /// A stable name identifying the service (the `libRSS` registry key).
    fn name(&self) -> &str;

    /// Called once when the simulation starts.
    fn on_start(&mut self, _ctx: &mut Context<Self::Msg>) {}

    /// Submits one operation for `lane`. Completion is reported later through
    /// [`Service::drain_completed`] (possibly synchronously, e.g. a fence with
    /// nothing to do).
    fn submit(&mut self, ctx: &mut Context<Self::Msg>, lane: LaneId, op: SessionOp);

    /// Delivers a protocol message.
    fn on_message(&mut self, ctx: &mut Context<Self::Msg>, from: NodeId, msg: Self::Msg);

    /// Delivers a service-owned (odd-tag) timer.
    fn on_timer(&mut self, _ctx: &mut Context<Self::Msg>, _tag: u64) {}

    /// Notifies the service that `session` has departed and will issue no
    /// further operations, so per-session protocol state (e.g. Spanner's
    /// `t_min`) can be dropped. Long partly-open runs spawn a fresh session
    /// id per arrival; without this hook that state grows without bound.
    fn end_session(&mut self, _session: u64) {}

    /// The session's causal floor at this service — the protocol-specific
    /// minimum timestamp capturing its causal past (Spanner-RSS's `t_min`).
    /// Exported into a [`regular_librss::CausalContext`] when the session's
    /// position is handed to another process (Section 4.2). Services without
    /// a timestamped floor return 0.
    fn session_floor(&self, _session: u64) -> u64 {
        0
    }

    /// Raises the session's causal floor from an imported
    /// [`regular_librss::CausalContext`]: every transaction the session
    /// subsequently issues must observe at least this much of the sender's
    /// causal past. Services without a timestamped floor ignore it.
    fn raise_session_floor(&mut self, _session: u64, _floor: u64) {}

    /// Takes the operations completed since the last call.
    fn drain_completed(&mut self) -> Vec<CompletedRecord>;
}

/// Lifts a `Service` with message type `P` into a combined-message simulation
/// with wire type `M` (see [`regular_sim::compose`]): the service-facing
/// counterpart of [`regular_sim::Embedded`].
///
/// When several services share one node (a [`crate::ComposedRunner`]), each
/// allocates odd timer tags from its own counter, so the raw tags collide.
/// [`MappedService::with_tag_namespace`] interleaves them: service `i` of `n`
/// maps its `k`-th odd tag to the `(k*n + i)`-th odd tag of the node, and
/// inversely only accepts timers of its own residue class.
pub struct MappedService<S, M> {
    /// The wrapped protocol service.
    pub inner: S,
    /// `(index, count)` when sharing a node with `count` services.
    namespace: Option<(u64, u64)>,
    _wire: PhantomData<fn() -> M>,
}

impl<S, M> MappedService<S, M> {
    /// Wraps a protocol service for use behind wire type `M`.
    pub fn new(inner: S) -> Self {
        MappedService { inner, namespace: None, _wire: PhantomData }
    }

    /// Wraps a protocol service as service `index` of `count` sharing one
    /// node's timer namespace.
    ///
    /// # Panics
    ///
    /// Panics if `index >= count` or `count` is zero.
    pub fn with_tag_namespace(inner: S, index: usize, count: usize) -> Self {
        assert!(count > 0 && index < count, "index must be within count");
        MappedService { inner, namespace: Some((index as u64, count as u64)), _wire: PhantomData }
    }

    /// Maps an inner odd tag into this service's namespace.
    fn map_out(&self) -> impl Fn(u64) -> u64 {
        let namespace = self.namespace;
        move |tag| match namespace {
            None => tag,
            Some((index, count)) => {
                debug_assert!(tag & 1 == 1, "services must allocate odd timer tags");
                (((tag >> 1) * count + index) << 1) | 1
            }
        }
    }

    /// Maps a node-level odd tag back to the inner tag, if it is ours.
    fn map_in(&self, tag: u64) -> Option<u64> {
        match self.namespace {
            None => Some(tag),
            Some((index, count)) => {
                let k = tag >> 1;
                (k % count == index).then_some(((k / count) << 1) | 1)
            }
        }
    }
}

impl<S, M> Service for MappedService<S, M>
where
    S: Service,
    M: TryInto<S::Msg> + 'static,
    S::Msg: Into<M>,
{
    type Msg = M;

    fn service_id(&self) -> ServiceId {
        self.inner.service_id()
    }

    fn name(&self) -> &str {
        self.inner.name()
    }

    fn on_start(&mut self, ctx: &mut Context<M>) {
        let map = self.map_out();
        let inner = &mut self.inner;
        ctx.with_protocol_tagged(map, |c| inner.on_start(c));
    }

    fn submit(&mut self, ctx: &mut Context<M>, lane: LaneId, op: SessionOp) {
        let map = self.map_out();
        let inner = &mut self.inner;
        ctx.with_protocol_tagged(map, |c| inner.submit(c, lane, op));
    }

    fn on_message(&mut self, ctx: &mut Context<M>, from: NodeId, msg: M) {
        if let Ok(p) = msg.try_into() {
            let map = self.map_out();
            let inner = &mut self.inner;
            ctx.with_protocol_tagged(map, |c| inner.on_message(c, from, p));
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<M>, tag: u64) {
        if let Some(inner_tag) = self.map_in(tag) {
            let map = self.map_out();
            let inner = &mut self.inner;
            ctx.with_protocol_tagged(map, |c| inner.on_timer(c, inner_tag));
        }
    }

    fn end_session(&mut self, session: u64) {
        self.inner.end_session(session);
    }

    fn session_floor(&self, session: u64) -> u64 {
        self.inner.session_floor(session)
    }

    fn raise_session_floor(&mut self, session: u64, floor: u64) {
        self.inner.raise_session_floor(session, floor);
    }

    fn drain_completed(&mut self) -> Vec<CompletedRecord> {
        self.inner.drain_completed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tag_namespaces_are_disjoint() {
        let mut rc = 0u64;
        let mut sc = 0u64;
        let runner: Vec<u64> = (0..4).map(|_| runner_tag(&mut rc)).collect();
        let service: Vec<u64> = (0..4).map(|_| service_tag(&mut sc)).collect();
        assert_eq!(runner, vec![0, 2, 4, 6]);
        assert_eq!(service, vec![1, 3, 5, 7]);
        assert!(runner.iter().all(|t| t & 1 == 0));
        assert!(service.iter().all(|t| t & 1 == 1));
    }

    #[test]
    fn shared_node_tag_namespaces_roundtrip_and_never_collide() {
        struct Dummy;
        impl Service for Dummy {
            type Msg = ();
            fn service_id(&self) -> ServiceId {
                ServiceId::KV
            }
            fn name(&self) -> &str {
                "dummy"
            }
            fn submit(&mut self, _: &mut Context<()>, _: LaneId, _: SessionOp) {}
            fn on_message(&mut self, _: &mut Context<()>, _: NodeId, _: ()) {}
            fn drain_completed(&mut self) -> Vec<CompletedRecord> {
                Vec::new()
            }
        }
        let a: MappedService<Dummy, ()> = MappedService::with_tag_namespace(Dummy, 0, 2);
        let b: MappedService<Dummy, ()> = MappedService::with_tag_namespace(Dummy, 1, 2);
        let mut counter_a = 0u64;
        let mut counter_b = 0u64;
        for _ in 0..8 {
            let ta = (a.map_out())(service_tag(&mut counter_a));
            let tb = (b.map_out())(service_tag(&mut counter_b));
            assert_ne!(ta, tb);
            assert!(ta & 1 == 1 && tb & 1 == 1, "mapped tags stay odd (service-owned)");
            // Each service recognizes exactly its own tags.
            assert!(a.map_in(ta).is_some() && a.map_in(tb).is_none());
            assert!(b.map_in(tb).is_some() && b.map_in(ta).is_none());
        }
        // Roundtrip: out then in restores the inner tag.
        let inner = 5u64; // an odd inner tag
        assert_eq!(b.map_in((b.map_out())(inner)), Some(inner));
    }
}
