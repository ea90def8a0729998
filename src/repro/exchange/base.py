"""DataExchange base: hosting, schemas, grants, and handles.

A :class:`DataExchange` owns a backend store, a schema registry, an access
controller, and an audit log.  Knactors *host* their data stores on it
(the development workflow's "Externalize" step), and reconcilers /
integrators obtain :class:`~repro.exchange.object_de.ObjectStoreHandle` /
:class:`~repro.exchange.log_de.LogStoreHandle` objects bound to a principal
and network location ("Exchange" step).

Grants follow the paper's rule set: a store's owner (its reconciler) gets
full access; an integrator granted access to a store may read it and may
write only the fields annotated ``+kr: external`` (Object) or
``+kr: ingest`` (Log), unless the grant says otherwise.
"""

from dataclasses import dataclass

from repro.errors import ConfigurationError, NotFoundError, QueryError
from repro.exchange.access import (
    ALL_VERBS,
    AccessController,
    Grant,
    Permission,
    Role,
)
from repro.exchange.audit import AuditLog
from repro.federation import MaterializedView, RegisteredView, ViewHandle
from repro.flow.admission import VIEW
from repro.query import Query, QueryResult
from repro.schema import Schema, SchemaRegistry


@dataclass
class HostedStore:
    """One knactor data store hosted on a DE."""

    name: str
    schema: Schema
    owner: str

    @property
    def key_prefix(self):
        return f"{self.name}/"


class DataExchange:
    """Base class for Object and Log data exchanges."""

    #: Verbs handed to a store owner.
    OWNER_VERBS = ALL_VERBS

    def __init__(self, env, backend, name="de", retry_policy=None,
                 watch_credits=None, watch_overflow=None):
        self.env = env
        self.backend = backend
        self.name = name
        #: Optional :class:`repro.faults.RetryPolicy` shared by every
        #: client this DE mints -- one knob makes the whole exchange
        #: ride through transient backend faults.
        self.retry_policy = retry_policy
        #: DE-wide flow-control defaults: every handle this DE mints
        #: inherits them unless ``handle(..., credits=, overflow=)``
        #: overrides (see :mod:`repro.flow`).  None disables credit flow.
        self.watch_credits = watch_credits
        self.watch_overflow = watch_overflow
        self.schemas = SchemaRegistry()
        self.audit = AuditLog()
        self.acl = AccessController(audit=self.audit)
        self.grants = []
        self._stores = {}
        self._views = {}  # composed-view name -> RegisteredView

    # -- hosting ---------------------------------------------------------------

    def host_store(self, store_name, schema, owner):
        """Host a data store: register its schema and grant the owner.

        ``schema`` may be a :class:`Schema` or its Fig. 5 text form.
        """
        if store_name in self._stores:
            raise ConfigurationError(f"store {store_name!r} is already hosted")
        if store_name in self._views:
            raise ConfigurationError(
                f"{store_name!r} already names a composed view here"
            )
        if isinstance(schema, str):
            schema = Schema.from_text(schema)
        self.schemas.register(schema)
        hosted = HostedStore(store_name, schema, owner)
        self._stores[store_name] = hosted
        role = Role(
            f"owner:{store_name}",
            [
                Permission(
                    store=store_name,
                    verbs=self.OWNER_VERBS,
                    write_fields=None,
                    read_fields=("*",),
                )
            ],
        )
        self.acl.add_role(role)
        self.acl.bind(owner, role.name)
        self._on_hosted(hosted)
        return hosted

    def _on_hosted(self, hosted):
        """Subclass hook (e.g. the Log DE creates the backing pool)."""

    def store(self, store_name):
        try:
            return self._stores[store_name]
        except KeyError:
            raise NotFoundError(f"store {store_name!r} is not hosted here") from None

    def stores(self):
        return sorted(self._stores)

    def schema_for(self, store_name):
        """The only thing non-owners may inspect: the schema, not states."""
        return self.store(store_name).schema

    def update_schema(self, store_name, schema, allow_breaking=False):
        """Re-register a store's schema (schema evolution, task T3)."""
        hosted = self.store(store_name)
        if isinstance(schema, str):
            schema = Schema.from_text(schema)
        delta = self.schemas.register(schema, allow_breaking=allow_breaking)
        hosted.schema = schema
        return delta

    # -- grants ------------------------------------------------------------------

    def grant(
        self,
        principal,
        store_name,
        *_removed,
        role="integrator",
        verbs=None,
        write_fields=None,
        read_fields=(),
        note="",
    ):
        """Grant ``principal`` access to a hosted store -- the one entry point.

        Two modes:

        - **role-based** (the common case): ``role="integrator"`` (the
          DE-specific standard integrator grant: reads plus writes scoped
          to the schema's externalized fields), ``role="reader"``
          (read-only), or -- when ``store_name`` is a registered composed
          view -- ``role="viewer"`` (the ``query`` verb on the view; the
          per-source secret masks compose at the view boundary, see
          :meth:`register_view`).
        - **custom**: pass ``verbs`` explicitly (optionally with
          ``write_fields`` / ``read_fields``) for a hand-tuned permission
          set; ``role`` is ignored.

        The pre-unification positional form ``grant(principal, store,
        verbs, ...)`` was removed after its deprecation window; it now
        raises :class:`TypeError` (as do the old ``grant_integrator`` /
        ``grant_reader`` aliases).
        """
        if _removed:
            raise TypeError(
                "positional verbs/write_fields were removed from "
                "DataExchange.grant(); migrate to grant(principal, "
                "store_name, role=...) or grant(principal, store_name, "
                "verbs=..., write_fields=...)"
            )
        if verbs is None:
            if store_name in self._views:
                if role != "viewer":
                    raise ConfigurationError(
                        f"{store_name!r} is a composed view; grant it with "
                        f'role="viewer" (got role={role!r})'
                    )
                verbs, write_fields = {"query"}, None
                note = note or f"viewer grant on composed view {store_name!r}"
            else:
                verbs, write_fields, default_note = self._role_policy(
                    role, store_name
                )
                note = note or default_note
        return self._grant(
            principal, store_name, verbs,
            write_fields=write_fields, read_fields=read_fields, note=note,
        )

    def _role_policy(self, role, store_name):
        """Subclass hook: ``(verbs, write_fields, default_note)`` for a role."""
        if role == "viewer":
            raise ConfigurationError(
                f'role="viewer" is scoped to registered composed views; '
                f"{store_name!r} is a hosted store (use role=\"reader\")"
            )
        raise ConfigurationError(
            f"{type(self).__name__} has no grant role {role!r}"
        )

    def _grant(self, principal, store_name, verbs, write_fields=None,
               read_fields=(), note=""):
        if store_name not in self._views:
            self.store(store_name)  # must exist
        verbs = frozenset(verbs)
        role = Role(
            f"grant:{principal}:{store_name}:{len(self.grants)}",
            [
                Permission(
                    store=store_name,
                    verbs=verbs,
                    write_fields=tuple(write_fields) if write_fields is not None else None,
                    read_fields=tuple(read_fields),
                )
            ],
        )
        self.acl.add_role(role)
        self.acl.bind(principal, role.name)
        grant = Grant(
            principal=principal,
            store=store_name,
            verbs=verbs,
            write_fields=tuple(write_fields) if write_fields is not None else None,
            note=note,
        )
        self.grants.append(grant)
        return grant

    def grant_integrator(self, *args, **kwargs):
        """Removed alias; raises with the migration."""
        raise TypeError(
            "DataExchange.grant_integrator() was removed; use "
            'grant(principal, store_name, role="integrator")'
        )

    def grant_reader(self, *args, **kwargs):
        """Removed alias; raises with the migration."""
        raise TypeError(
            "DataExchange.grant_reader() was removed; use "
            'grant(principal, store_name, role="reader")'
        )

    # -- composed views ----------------------------------------------------------

    def register_view(self, view, *, exchanges=None, materialize=True,
                      registry=None, tracer=None, lag_window=1.0,
                      floor=0.002):
        """Register a :class:`~repro.federation.views.ComposedView` here.

        This exchange becomes the view's *home*: the view name joins the
        ACL namespace (grant read access with ``grant(principal,
        view_name, role="viewer")``), and ``view()`` / ``query()``
        answer against it.

        Sources may live on other exchanges: ``exchanges`` maps the
        names used in :attr:`ViewSource.exchange` to live
        :class:`DataExchange` instances (``None``/unset sources resolve
        to this exchange).  For every source the view's service
        principal (``view:<name>``) is granted ``role="reader"`` on its
        home exchange and bound to the :data:`~repro.flow.VIEW`
        admission class on its backend -- so each source's secret-field
        masks apply at the edge, exactly as they would for any other
        reader, and the composed record can never leak a field the view
        itself could not read.

        ``materialize=True`` additionally starts incremental
        maintenance (a :class:`~repro.federation.MaterializedView` fed
        from the sources' watch streams); ``lag_window`` / ``floor``
        tune its staleness estimator.  ``registry`` / ``tracer`` wire
        the per-view metrics and ``view_*`` trace spans.
        """
        name = view.name
        if name in self._views:
            raise ConfigurationError(f"view {name!r} is already registered")
        if name in self._stores:
            raise ConfigurationError(
                f"view {name!r} collides with a hosted store name"
            )
        resolve = dict(exchanges or {})
        principal = f"view:{name}"
        handles, kinds = {}, {}
        for src in view.sources:
            if src.exchange is None:
                de = self
            else:
                de = resolve.get(src.exchange)
                if de is None:
                    raise ConfigurationError(
                        f"view {name!r} source {src.alias!r} names unknown "
                        f"exchange {src.exchange!r}; pass it via "
                        f"register_view(..., exchanges={{...}})"
                    )
            de.grant(principal, src.store, role="reader",
                     note=f"composed view {name!r} source {src.alias!r}")
            handles[src.alias] = de.handle(
                src.store, principal=principal, location=principal,
            )
            kinds[src.alias] = (
                "log" if hasattr(handles[src.alias], "load") else "object"
            )
            for server in getattr(de.backend, "shards", None) or [de.backend]:
                admission = getattr(server, "admission", None)
                if admission is not None:
                    admission.assign(principal, VIEW)
        materialized = None
        if materialize:
            materialized = MaterializedView(
                self.env, view, handles, kinds, registry=registry,
                lag_window=lag_window, floor=floor,
            )
        registered = RegisteredView(
            self.env, view, self, handles, kinds, registry=registry,
            tracer=tracer, materialized=materialized,
        )
        self._views[name] = registered
        if materialized is not None:
            materialized.start()
        return registered

    def views(self):
        return sorted(self._views)

    def view(self, view_name, *, principal=None):
        """A :class:`~repro.federation.ViewHandle` bound to ``principal``.

        The view-side analogue of :meth:`handle`; every ``query`` it
        answers passes RBAC (the ``query`` verb on the view name).
        """
        if principal is None:
            raise TypeError("view() missing required argument: 'principal'")
        registered = self._views.get(view_name)
        if registered is None:
            raise NotFoundError(
                f"view {view_name!r} is not registered here"
            )
        return ViewHandle(registered, principal)

    # -- the unified declarative read ---------------------------------------------

    def query(self, target, *, ops=(), freshness=None, consistency=None,
              principal=None, keys=None, strategy=None):
        """One declarative read API over stores *and* composed views.

        ``target`` is a hosted store name, a registered view name, or a
        pre-built :class:`repro.query.Query` (whose fields then provide
        the defaults).  Keyword-only:

        - ``ops``: shared-core pipeline over the result records;
        - ``freshness`` / ``consistency``: staleness tolerance -- drives
          the federation planner for views; direct store reads are
          strong by construction and simply record it;
        - ``principal``: required; RBAC / admission / audit identity;
        - ``keys``: root-key restriction (Object stores and views);
        - ``strategy``: force a view strategy past the planner
          (views only).

        Returns a process event yielding a
        :class:`repro.query.QueryResult`.  This subsumes the historical
        read spellings -- ``handle.list()`` plus a hand-compiled
        pipeline, or per-DE query verbs -- behind one shape.
        """
        if isinstance(target, Query):
            spec, target = target, target.target
            ops = ops or spec.ops
            freshness = freshness if freshness is not None else spec.freshness
            consistency = consistency or spec.consistency
            principal = principal or spec.principal
            keys = keys if keys is not None else spec.keys
        if principal is None:
            raise TypeError("query() missing required argument: 'principal'")
        if target in self._views:
            return self.view(target, principal=principal).query(
                ops=ops, freshness=freshness, consistency=consistency,
                keys=keys, strategy=strategy,
            )
        if strategy is not None:
            raise QueryError(
                f"strategy= applies to composed views; {target!r} is a "
                f"hosted store"
            )
        spec = Query(
            target=target, ops=ops, freshness=freshness,
            consistency=consistency, principal=principal, keys=keys,
        )
        handle = self.handle(target, principal=principal)
        if hasattr(handle, "load"):
            if spec.keys is not None:
                raise QueryError(
                    f"keys= applies to Object stores and views; "
                    f"{spec.target!r} is a Log store"
                )
            return self.env.process(self._query_log(handle, spec))
        return self.env.process(self._query_object(handle, spec))

    def _query_log(self, handle, spec):
        # Analytics push-down: the pipeline executes in the Log store.
        records = yield handle.query(ops=list(spec.ops))
        return QueryResult(list(records), strategy="direct")

    def _query_object(self, handle, spec):
        if spec.keys is not None:
            rows = []
            for key in dict.fromkeys(spec.keys):
                try:
                    view = yield handle.get(key)
                except NotFoundError:
                    continue
                rows.append({**view["data"], "_key": view["key"]})
        else:
            views = yield handle.list()
            rows = [{**v["data"], "_key": v["key"]} for v in views]
        return QueryResult(spec.pipeline()(rows), strategy="direct")

    # -- handles -----------------------------------------------------------------

    def handle(self, store_name, *_removed, principal=None, location=None,
               retry_policy=None, credits=None, overflow=None):
        """A :class:`StoreHandle` bound to ``principal`` at ``location``.

        The unified signature across Object and Log exchanges:

        - ``principal`` (required, keyword-only): who the handle acts as
          (RBAC subject, audit identity, admission-control identity);
        - ``location`` defaults to the principal's name (the common
          "client runs where the knactor runs" case);
        - ``retry_policy`` overrides the DE-wide policy for this handle
          only;
        - ``credits`` / ``overflow`` set the flow-control defaults for
          every watch opened through this handle (falling back to the
          DE-wide ``watch_credits`` / ``watch_overflow``; see
          :mod:`repro.flow`).

        The pre-unification positional form ``handle(store, principal,
        location)`` was removed after its deprecation window; it now
        raises :class:`TypeError`.
        """
        if _removed:
            raise TypeError(
                "positional principal/location were removed from "
                "DataExchange.handle(); migrate to handle(store_name, "
                "principal=..., location=...)"
            )
        if principal is None:
            raise TypeError("handle() missing required argument: 'principal'")
        if store_name in self._views:
            raise ConfigurationError(
                f"{store_name!r} is a composed view; read it via "
                f"view({store_name!r}, principal=...) or query(...)"
            )
        hosted = self.store(store_name)
        handle = self._make_handle(
            hosted, principal,
            location if location is not None else principal,
            retry_policy,
        )
        client = handle.client
        client.principal = principal
        client.default_watch_credits = (
            credits if credits is not None else self.watch_credits
        )
        client.default_watch_overflow = (
            overflow if overflow is not None else self.watch_overflow
        )
        return handle

    def _make_handle(self, hosted, principal, location, retry_policy):
        """Subclass hook: build the DE-specific :class:`StoreHandle`."""
        raise NotImplementedError

    def describe(self):
        """Human-oriented summary (used by the CLI)."""
        lines = [f"DataExchange {self.name!r} ({type(self).__name__})"]
        for name in self.stores():
            hosted = self._stores[name]
            lines.append(
                f"  store {name}  schema={hosted.schema.name}  owner={hosted.owner}"
            )
        for name in self.views():
            registered = self._views[name]
            sources = ", ".join(
                f"{alias}:{kind}" for alias, kind in registered.kinds.items()
            )
            lines.append(
                f"  view {name}  sources=[{sources}]  "
                f"freshness={registered.view.freshness}s  "
                f"materialized={registered.materialized is not None}"
            )
        for grant in self.grants:
            scope = (
                "all fields"
                if grant.write_fields is None
                else ", ".join(grant.write_fields) or "(read-only)"
            )
            lines.append(
                f"  grant {grant.principal} -> {grant.store}: "
                f"{'/'.join(sorted(grant.verbs))} [{scope}]"
            )
        return "\n".join(lines)


class StoreHandle:
    """The common handle protocol returned by :meth:`DataExchange.handle`.

    Every handle, regardless of exchange type, carries the same four
    bindings (``de`` / ``hosted`` / ``principal`` / ``client``), exposes
    ``env`` / ``schema`` / ``store_name``, and admits every operation
    through RBAC via :meth:`_check`.  Subclasses add the substrate
    surface -- CRUD + ``watch`` for the Object DE, ``load`` / ``query``
    + ``watch`` for the Log DE -- with every operation returning a
    simnet process event.  ``watch`` is part of the shared protocol:
    both exchanges accept ``handler``, ``on_close`` (stream broke:
    re-watch + resync), ``batch_handler`` (consume a coalesced delivery
    in one call), and ``credits`` (override the handle's credit window
    for this stream; see :mod:`repro.flow`).
    """

    def __init__(self, de, hosted, principal, client):
        self.de = de
        self.hosted = hosted
        self.principal = principal
        self.client = client

    @property
    def env(self):
        return self.de.env

    @property
    def schema(self):
        return self.hosted.schema

    @property
    def store_name(self):
        return self.hosted.name

    def _check(self, verb, fields=None):
        self.de.acl.check(
            self.principal,
            self.hosted.name,
            verb,
            now=self.env.now,
            fields=fields,
        )

    def watch(self, handler, *, batch_handler=None, on_close=None,
              credits=None, overflow=None):
        raise NotImplementedError
