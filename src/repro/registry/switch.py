"""Blue/green switch: registry versions -> running service, zero downtime.

:class:`ModelSwitch` is the thin coordinator between a
:class:`~repro.registry.store.ModelRegistry` (which owns the versioned
artifacts) and a running
:class:`~repro.serve.service.ClassificationService` (which owns the replica
pool): ``swap_to("v000004")`` resolves the version, loads its flat artifact,
and hands the identifier to :meth:`ClassificationService.swap_model`, which
rolls the replicas one at a time.  The HTTP tier exposes it as
``POST /admin/swap`` and the CLI wires it up under
``repro serve --registry``.
"""

from __future__ import annotations

from repro.registry.store import ModelRegistry

__all__ = ["ModelSwitch"]


class ModelSwitch:
    """Swap a running service between published registry versions.

    Parameters
    ----------
    service:
        The running :class:`~repro.serve.service.ClassificationService`.
    registry:
        The :class:`~repro.registry.store.ModelRegistry` versions are pulled
        from.
    """

    def __init__(self, service, registry: ModelRegistry):
        self.service = service
        self.registry = registry

    async def swap_to(self, spec: "int | str" = "latest", activate: bool = True) -> dict:
        """Resolve ``spec``, load its artifact, and hot-swap the service onto it.

        ``activate=True`` (the default) also repoints the registry's
        ``LATEST`` at the version once the swap has succeeded, so a restarted
        service comes back up on the model that was actually serving.
        Returns the service's swap report extended with the version record.
        """
        record = self.registry.resolve(spec)
        if record.fingerprint == self.service.describe()["model_fingerprint"]:
            return {
                "noop": True,
                "version": record.name,
                "fingerprint": record.fingerprint,
            }
        identifier = self.registry.load(record.version)
        report = await self.service.swap_model(identifier, version=record.name)
        if activate:
            self.registry.set_latest(record)
        report["manifest"] = record.to_json()
        return report
