//! Cluster membership.
//!
//! The paper relies on Kubernetes to answer the one membership question its
//! protocols need: *which AFT nodes exist right now* (needed only by garbage
//! collection and the fault manager, never on the transaction critical path —
//! footnote 1 of §5.2). [`NodeRegistry`] is that source of truth for the
//! simulated cluster: nodes are registered when they join, marked failed when
//! they are killed (and counted failed once they crash), and replaced by
//! standbys brought up by the fault manager.

use std::collections::HashMap;
use std::sync::Arc;

use aft_core::{AftNode, Origin};
use parking_lot::RwLock;

/// Lifecycle state of a registered node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeState {
    /// Serving requests.
    Active,
    /// Killed or crashed; awaiting replacement.
    Failed,
    /// A replacement that is still downloading its container image and
    /// warming its metadata cache (§6.7); not yet serving requests.
    Starting,
}

#[derive(Clone)]
struct Member {
    node: Arc<AftNode>,
    state: NodeState,
}

impl Member {
    /// The state it was marked, except that a node its phase hook crashed
    /// ([`AftNode::crashed`]) is failed from that instant.
    fn state(&self) -> NodeState {
        if self.node.crashed() {
            NodeState::Failed
        } else {
            self.state
        }
    }
}

/// The registry of AFT nodes in one deployment.
#[derive(Default)]
pub struct NodeRegistry {
    members: RwLock<HashMap<String, Member>>,
}

impl NodeRegistry {
    /// Creates an empty registry.
    pub fn new() -> Arc<Self> {
        Arc::new(NodeRegistry::default())
    }

    /// Registers a node in the given state. Re-registering an existing node
    /// id replaces its entry.
    pub fn register(&self, node: Arc<AftNode>, state: NodeState) {
        self.members
            .write()
            .insert(node.node_id().to_owned(), Member { node, state });
    }

    /// Changes a node's state; returns false if the node is unknown.
    pub(crate) fn set_state(&self, node_id: &str, state: NodeState) -> bool {
        match self.members.write().get_mut(node_id) {
            Some(member) => {
                member.state = state;
                true
            }
            None => false,
        }
    }

    /// Removes a node from the registry entirely (it will never come back
    /// under this identity).
    pub(crate) fn deregister(&self, node_id: &str) -> bool {
        self.members.write().remove(node_id).is_some()
    }

    /// The node registered under `node_id`, regardless of state.
    pub fn get(&self, node_id: &str) -> Option<Arc<AftNode>> {
        self.members
            .read()
            .get(node_id)
            .map(|m| Arc::clone(&m.node))
    }

    /// All nodes currently in the `Active` state, sorted by node id for
    /// deterministic iteration.
    pub fn active_nodes(&self) -> Vec<Arc<AftNode>> {
        let members = self.members.read();
        let mut active: Vec<_> = members
            .values()
            .filter(|m| m.state() == NodeState::Active)
            .map(|m| Arc::clone(&m.node))
            .collect();
        active.sort_by(|a, b| a.node_id().cmp(b.node_id()));
        active
    }

    /// The active node that is `origin`, if it is still registered and
    /// active: a failed, replaced or starting node answers no peer.
    pub(crate) fn active_origin(&self, origin: Origin) -> Option<Arc<AftNode>> {
        let members = self.members.read();
        let member = members.values().find(|m| m.node.origin() == origin)?;
        (member.state() == NodeState::Active).then(|| Arc::clone(&member.node))
    }

    /// All registered nodes regardless of state, sorted by node id.
    pub(crate) fn all_nodes(&self) -> Vec<(Arc<AftNode>, NodeState)> {
        let members = self.members.read();
        let mut all: Vec<_> = members
            .values()
            .map(|m| (Arc::clone(&m.node), m.state()))
            .collect();
        all.sort_by(|a, b| a.0.node_id().cmp(b.0.node_id()));
        all
    }

    /// The ids of nodes currently marked `Failed`.
    pub fn failed_node_ids(&self) -> Vec<String> {
        self.members
            .read()
            .iter()
            .filter(|(_, m)| m.state() == NodeState::Failed)
            .map(|(id, _)| id.clone())
            .collect()
    }

    /// Number of active nodes.
    pub fn active_count(&self) -> usize {
        self.members
            .read()
            .values()
            .filter(|m| m.state() == NodeState::Active)
            .count()
    }

    /// Total number of registered nodes.
    pub fn len(&self) -> usize {
        self.members.read().len()
    }

    /// Returns true if no nodes are registered.
    pub fn is_empty(&self) -> bool {
        self.members.read().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aft_core::NodeConfig;
    use aft_storage::InMemoryStore;

    fn node(id: &str) -> Arc<AftNode> {
        AftNode::new(NodeConfig::test().with_node_id(id), InMemoryStore::shared()).unwrap()
    }

    #[test]
    fn register_and_query() {
        let registry = NodeRegistry::new();
        assert!(registry.is_empty());
        registry.register(node("b"), NodeState::Active);
        registry.register(node("a"), NodeState::Active);
        registry.register(node("c"), NodeState::Starting);

        assert_eq!(registry.len(), 3);
        assert_eq!(registry.active_count(), 2);
        let active: Vec<String> = registry
            .active_nodes()
            .iter()
            .map(|n| n.node_id().to_owned())
            .collect();
        assert_eq!(active, vec!["a", "b"], "sorted and filtered");
        let state_of = |id: &str| registry.members.read().get(id).map(Member::state);
        assert_eq!(state_of("c"), Some(NodeState::Starting));
        assert_eq!(state_of("zz"), None);
    }

    #[test]
    fn state_transitions_and_failure_listing() {
        let registry = NodeRegistry::new();
        registry.register(node("a"), NodeState::Active);
        assert!(registry.set_state("a", NodeState::Failed));
        assert!(!registry.set_state("ghost", NodeState::Failed));
        assert_eq!(registry.active_count(), 0);
        assert_eq!(registry.failed_node_ids(), vec!["a"]);
        assert!(registry.set_state("a", NodeState::Active));
        assert!(registry.failed_node_ids().is_empty());
    }

    #[test]
    fn deregister_removes_entries() {
        let registry = NodeRegistry::new();
        registry.register(node("a"), NodeState::Active);
        assert!(registry.deregister("a"));
        assert!(!registry.deregister("a"));
        assert!(registry.is_empty());
    }

    #[test]
    fn all_nodes_returns_every_state() {
        let registry = NodeRegistry::new();
        registry.register(node("a"), NodeState::Active);
        registry.register(node("b"), NodeState::Failed);
        let all = registry.all_nodes();
        assert_eq!(all.len(), 2);
        assert_eq!(all[0].1, NodeState::Active);
        assert_eq!(all[1].1, NodeState::Failed);
    }
}
