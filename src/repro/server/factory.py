"""The name of the HTTP transport every server process runs.

There is one: :class:`~repro.server.async_http.AsyncSemTreeServer`, built
directly by the CLIs, tests, tools and benchmarks.
"""

from __future__ import annotations

from typing import Optional

__all__ = ["resolve_transport"]


def resolve_transport(transport: Optional[str] = None) -> str:
    """Always ``"async"``: perfbench's run provenance imports this name."""
    return "async"
