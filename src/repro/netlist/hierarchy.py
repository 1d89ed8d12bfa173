"""Logical hierarchy tree extraction.

The paper's Algorithm 1 (lines 2-3) reads the logical hierarchy from
OpenDB and builds a hierarchy tree ``T(V', E')``.  Here we rebuild the
same structure from the hierarchical instance names stored in the
:class:`~repro.netlist.design.Design` (``a/b/U1`` means instance ``U1``
inside module instance ``b`` inside module instance ``a``).

Internal nodes are module instances; leaves are the design's cell
instances.  The tree is the input to the dendrogram-based hierarchy
clustering of Algorithm 2 (:mod:`repro.core.hier_clustering`).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional

from repro.netlist.design import Design, Instance


class HierarchyNode:
    """One node of the logical hierarchy tree.

    Attributes:
        name: Local name of the module instance ("" for the root).
        parent: Parent node, or None for the root.
        children: Child nodes in insertion order.
        instances: Leaf cell instances directly inside this module
            (not including those in sub-modules).
    """

    __slots__ = ("name", "parent", "children", "instances")

    def __init__(self, name: str, parent: Optional["HierarchyNode"] = None) -> None:
        self.name = name
        self.parent = parent
        self.children: List["HierarchyNode"] = []
        self.instances: List[Instance] = []

    @property
    def full_path(self) -> str:
        """Slash-joined path from the root (root itself is "")."""
        parts: List[str] = []
        node: Optional[HierarchyNode] = self
        while node is not None and node.name:
            parts.append(node.name)
            node = node.parent
        return "/".join(reversed(parts))

    @property
    def is_leaf_module(self) -> bool:
        """True when the module has no sub-modules."""
        return not self.children

    def depth(self) -> int:
        """Distance from the root (root depth is 0)."""
        d = 0
        node = self.parent
        while node is not None:
            d += 1
            node = node.parent
        return d

    def subtree_instances(self) -> List[Instance]:
        """All cell instances in this module and its sub-modules."""
        out = list(self.instances)
        for child in self.children:
            out.extend(child.subtree_instances())
        return out

    def iter_subtree(self) -> Iterator["HierarchyNode"]:
        """Pre-order traversal of the subtree rooted here."""
        yield self
        for child in self.children:
            yield from child.iter_subtree()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"HierarchyNode({self.full_path or '<root>'}, "
            f"children={len(self.children)}, insts={len(self.instances)})"
        )


class HierarchyTree:
    """The logical hierarchy of a design.

    Attributes:
        root: The top-level :class:`HierarchyNode`.
        design: The design the tree was extracted from.
    """

    def __init__(self, design: Design) -> None:
        self.design = design
        self.root = HierarchyNode("")
        self._node_by_path: Dict[str, HierarchyNode] = {"": self.root}
        for inst in design.instances:
            node = self._get_or_create(inst.hierarchy_path)
            node.instances.append(inst)

    def _get_or_create(self, path: List[str]) -> HierarchyNode:
        """Walk/extend the tree along ``path`` and return the module node."""
        key = "/".join(path)
        node = self._node_by_path.get(key)
        if node is not None:
            return node
        parent = self._get_or_create(path[:-1]) if path else self.root
        node = HierarchyNode(path[-1], parent=parent)
        parent.children.append(node)
        self._node_by_path[key] = node
        return node

    # ------------------------------------------------------------------
    def node(self, path: str) -> HierarchyNode:
        """Look up a module node by its slash-joined path."""
        return self._node_by_path[path]

    def module_paths(self) -> List[str]:
        """All module paths in pre-order (root first, as "")."""
        return [node.full_path for node in self.root.iter_subtree()]

    @property
    def num_modules(self) -> int:
        """Number of module nodes including the root."""
        return len(self._node_by_path)

    def max_depth(self) -> int:
        """Depth of the deepest module node."""
        return max(node.depth() for node in self.root.iter_subtree())

    def has_hierarchy(self) -> bool:
        """True when the netlist carries any logical hierarchy.

        Algorithm 1 only runs hierarchy-based clustering when the
        logical hierarchy is present; a fully flattened netlist (all
        instances directly under the root) returns False.
        """
        return bool(self.root.children)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"HierarchyTree(modules={self.num_modules}, depth={self.max_depth()})"
