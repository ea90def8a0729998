"""Optimization profiles: the §3.3 performance knobs in one place.

The paper lists three optimization levers:

1. a high-performance DE (in-memory k-v store) and **push-down** of
   composition logic into it via UDFs,
2. **zero-copy** data exchange when data stores and integrator are
   co-located with the DE (the profile's ``colocate`` flag; the store's
   own ``zero_copy`` flag is the unrelated copy-on-write state plane),
3. **consolidation** of state-processing operations.

An :class:`OptimizationProfile` bundles the backend, push-down and
co-location choices and configures a :class:`~repro.core.cast.Cast`
accordingly; consolidation is always on under a profile (the ablation
benches sweep it through
:class:`~repro.core.dxg.executor.ExecutorOptions`).  The three named
profiles reproduce Table 2's rows.
"""

from dataclasses import dataclass

from repro.core.dxg.executor import ExecutorOptions


@dataclass(frozen=True)
class OptimizationProfile:
    """A named combination of the paper's optimization toggles."""

    name: str
    backend: str = "apiserver"  # "apiserver" | "memkv"
    pushdown: bool = False
    colocate: bool = False  # run the integrator on the DE backend's node

    def executor_options(self):
        return ExecutorOptions(
            # Integrators under a profile run watch-fed (informer-style):
            # never pay a round trip to learn an object does not exist.
            trust_cache_for_missing=True,
        )

    def integrator_location(self, backend_location, default):
        """Where the integrator runs: on the DE node when co-located."""
        return backend_location if self.colocate else default


#: Table 2's three Knactor rows.
K_APISERVER = OptimizationProfile(name="K-apiserver", backend="apiserver")
K_REDIS = OptimizationProfile(name="K-redis", backend="memkv")
K_REDIS_UDF = OptimizationProfile(
    name="K-redis-udf", backend="memkv", pushdown=True
)

PROFILES = {p.name: p for p in (K_APISERVER, K_REDIS, K_REDIS_UDF)}
