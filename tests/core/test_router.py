"""Unit tests for the shared HTTP router and error envelope."""

import pytest

from repro.core.router import (MethodNotAllowed, RouteNotFound, Router,
                               error_envelope)


def _router():
    router = Router()
    router.add("GET", "/v1/health", lambda: "health")
    router.add("GET", "/v1/dictionaries", lambda: "list")
    router.add("GET", "/v1/dictionaries/<name>", lambda: "get")
    router.add("POST", "/v1/dictionaries/<name>/reload",
               lambda: "reload")
    router.add("POST", "/v1/diagnose", lambda: "diagnose")
    return router


class TestResolve:
    def test_exact_match(self):
        route = _router().resolve("GET", "/v1/health")
        assert route.handler() == "health"
        assert route.params == {}
        assert route.pattern == "/v1/health"

    def test_param_capture(self):
        route = _router().resolve("GET", "/v1/dictionaries/adc")
        assert route.handler() == "get"
        assert route.params == {"name": "adc"}

    def test_nested_param_capture(self):
        route = _router().resolve("POST",
                                  "/v1/dictionaries/adc/reload")
        assert route.params == {"name": "adc"}

    def test_trailing_slash_and_query_string_ignored(self):
        router = _router()
        assert router.resolve("GET", "/v1/health/").handler() == \
            "health"
        assert router.resolve("GET", "/v1/health?verbose=1"
                              ).handler() == "health"

    def test_method_case_insensitive(self):
        assert _router().resolve("get", "/v1/health").handler() == \
            "health"

    def test_unknown_path_raises_not_found(self):
        with pytest.raises(RouteNotFound) as excinfo:
            _router().resolve("GET", "/nope")
        assert excinfo.value.path == "/nope"
        # a parametrised segment must not swallow deeper paths
        with pytest.raises(RouteNotFound):
            _router().resolve("GET", "/v1/dictionaries/a/b/c")

    def test_repeated_slashes_collapse(self):
        # empty segments are dropped, so the doubled form matches the
        # same route as the clean path
        route = _router().resolve("GET", "/v1//dictionaries//adc")
        assert route.params == {"name": "adc"}

    def test_wrong_method_raises_method_not_allowed(self):
        with pytest.raises(MethodNotAllowed) as excinfo:
            _router().resolve("POST", "/v1/health")
        assert excinfo.value.allowed == ("GET",)
        assert excinfo.value.method == "POST"
        with pytest.raises(MethodNotAllowed) as excinfo:
            _router().resolve("GET", "/v1/diagnose")
        assert excinfo.value.allowed == ("POST",)


class TestErrorEnvelope:
    def test_shape(self):
        assert error_envelope("bad_request", "no queries") == \
            {"error": {"code": "bad_request",
                       "message": "no queries"}}

    def test_coerces_to_str(self):
        body = error_envelope("bad_request", ValueError("boom"))
        assert body["error"]["message"] == "boom"
