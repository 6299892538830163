//! The stateless load balancer.
//!
//! The paper uses "a simple stateless load balancer ... to route requests to
//! aft nodes in a round-robin fashion" (§6). Each logical request is pinned
//! to one node for its whole lifetime (every function in the composition
//! sends its operations there), so the router is consulted once per request.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use aft_core::AftNode;
use aft_types::{AftError, AftResult};

use crate::membership::NodeRegistry;

/// A round-robin router over the registry's active nodes.
pub(crate) struct RoundRobinRouter {
    registry: Arc<NodeRegistry>,
    next: AtomicUsize,
}

impl RoundRobinRouter {
    /// Creates a router over `registry`.
    pub(crate) fn new(registry: Arc<NodeRegistry>) -> Self {
        RoundRobinRouter {
            registry,
            next: AtomicUsize::new(0),
        }
    }

    /// Picks the node for the next request.
    ///
    /// Returns [`AftError::Unavailable`] when no node is active — clients
    /// treat that as a retryable condition, matching the behaviour of a load
    /// balancer with an empty backend pool.
    pub(crate) fn route(&self) -> AftResult<Arc<AftNode>> {
        let active = self.registry.active_nodes();
        if active.is_empty() {
            return Err(AftError::Unavailable(
                "no active AFT nodes are registered".to_owned(),
            ));
        }
        let index = self.next.fetch_add(1, Ordering::Relaxed) % active.len();
        Ok(Arc::clone(&active[index]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::membership::NodeState;
    use aft_core::NodeConfig;
    use aft_storage::InMemoryStore;

    fn node(id: &str) -> Arc<AftNode> {
        AftNode::new(NodeConfig::test().with_node_id(id), InMemoryStore::shared()).unwrap()
    }

    #[test]
    fn cycles_through_active_nodes() {
        let registry = NodeRegistry::new();
        for id in ["a", "b", "c"] {
            registry.register(node(id), NodeState::Active);
        }
        let router = RoundRobinRouter::new(Arc::clone(&registry));
        let picks: Vec<String> = (0..6)
            .map(|_| router.route().unwrap().node_id().to_owned())
            .collect();
        assert_eq!(picks, vec!["a", "b", "c", "a", "b", "c"]);
    }

    #[test]
    fn skips_failed_nodes() {
        let registry = NodeRegistry::new();
        registry.register(node("a"), NodeState::Active);
        registry.register(node("b"), NodeState::Active);
        let router = RoundRobinRouter::new(Arc::clone(&registry));
        registry.set_state("a", NodeState::Failed);
        for _ in 0..4 {
            assert_eq!(router.route().unwrap().node_id(), "b");
        }
    }

    #[test]
    fn empty_pool_is_unavailable() {
        let registry = NodeRegistry::new();
        let router = RoundRobinRouter::new(registry);
        assert!(matches!(router.route(), Err(AftError::Unavailable(_))));
    }
}
