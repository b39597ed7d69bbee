"""Fixtures shared by the autodiff tests."""

import pytest


@pytest.fixture
def graph_nodes():
    """``graph_nodes(root)``: every tensor reachable from ``root`` through recorded parents."""

    def walk(root):
        seen = {}
        stack = [root]
        while stack:
            node = stack.pop()
            if id(node) not in seen:
                seen[id(node)] = node
                stack.extend(node._parents)
        return list(seen.values())

    return walk
