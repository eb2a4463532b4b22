"""Declarative HTTP routing shared by every repro service endpoint.

The stdlib ``BaseHTTPRequestHandler`` hands a service nothing but a
method string and a raw path; before this module each handler
distinguished routes with a ladder of exact string compares, which
conflated "no such path" with "right path, wrong verb" and scattered
the error contract across branches.  A :class:`Router` is one dispatch
table instead:

* routes are registered once per server as ``(method, pattern)`` pairs,
  where a pattern segment ``<name>`` captures that path segment into
  the handler's keyword arguments (``/v1/dictionaries/<name>``);
* :meth:`Router.resolve` returns the matched handler or raises
  :class:`RouteNotFound` (404) / :class:`MethodNotAllowed` (405, with
  the allowed verbs for the ``Allow`` header) — the two failure modes
  the old string ladder could not tell apart.

The error *envelope* lives here too: every repro HTTP service answers
failures as ``{"error": {"code": ..., "message": ...}}`` via
:func:`error_envelope`, so clients of the diagnosis service and of the
distributed campaign coordinator parse one shape.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

__all__ = ["Router", "Route", "RouteNotFound", "MethodNotAllowed",
           "error_envelope"]


def error_envelope(code: str, message: str) -> Dict:
    """The uniform JSON error body: ``{"error": {"code", "message"}}``."""
    return {"error": {"code": str(code), "message": str(message)}}


class RouteNotFound(LookupError):
    """No registered route matches the request path (HTTP 404)."""

    def __init__(self, path: str) -> None:
        super().__init__(f"unknown path {path!r}")
        self.path = path


class MethodNotAllowed(LookupError):
    """The path exists but not under this verb (HTTP 405).

    Attributes:
        allowed: the verbs the path does answer, sorted — the HTTP
            layer puts them in the ``Allow`` response header.
    """

    def __init__(self, method: str, path: str,
                 allowed: Sequence[str]) -> None:
        self.allowed = tuple(sorted(allowed))
        super().__init__(
            f"method {method} not allowed on {path!r} "
            f"(allowed: {', '.join(self.allowed)})")
        self.method = method
        self.path = path


class Route:
    """One resolved route: the handler plus match bookkeeping.

    Attributes:
        handler: the registered callable.
        params: captured ``<name>`` path segments, by name.
        pattern: the pattern the route was registered under.
    """

    __slots__ = ("handler", "params", "pattern")

    def __init__(self, handler: Callable, params: Dict[str, str],
                 pattern: str) -> None:
        self.handler = handler
        self.params = params
        self.pattern = pattern


class _Rule:
    __slots__ = ("method", "segments", "pattern", "handler")

    def __init__(self, method: str, pattern: str,
                 handler: Callable) -> None:
        self.method = method.upper()
        self.pattern = pattern
        self.segments = _split(pattern)
        self.handler = handler

    def match(self, segments: Sequence[str]
              ) -> Optional[Dict[str, str]]:
        if len(segments) != len(self.segments):
            return None
        params: Dict[str, str] = {}
        for want, got in zip(self.segments, segments):
            if want.startswith("<") and want.endswith(">"):
                if not got:
                    return None
                params[want[1:-1]] = got
            elif want != got:
                return None
        return params


def _split(path: str) -> Tuple[str, ...]:
    return tuple(s for s in path.strip("/").split("/") if s != "")


class Router:
    """A method+path dispatch table with parameter capture."""

    def __init__(self) -> None:
        self._rules: List[_Rule] = []

    def add(self, method: str, pattern: str,
            handler: Callable) -> None:
        """Register ``handler`` under ``(method, pattern)``."""
        self._rules.append(_Rule(method, pattern, handler))

    def resolve(self, method: str, path: str) -> Route:
        """Match ``(method, path)`` to a :class:`Route`.

        Raises :class:`RouteNotFound` when no pattern matches the path
        under any verb, :class:`MethodNotAllowed` when the path exists
        but not under this verb.  The query string, if any, is ignored
        (split off before matching).
        """
        clean = path.split("?", 1)[0]
        segments = _split(clean)
        allowed: List[str] = []
        for rule in self._rules:
            params = rule.match(segments)
            if params is None:
                continue
            if rule.method == method.upper():
                return Route(rule.handler, params, rule.pattern)
            allowed.append(rule.method)
        if allowed:
            raise MethodNotAllowed(method, clean, allowed)
        raise RouteNotFound(clean)
