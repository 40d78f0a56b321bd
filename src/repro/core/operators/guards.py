"""Compiled operator guards: per-argument admission plus cross-alias pairing.

A temporal operator's residual WHERE conjuncts (the "qualifying
conditions") are evaluated *leniently*: a conjunct whose references are not
all bound yet must pass, because it will be re-checked once they bind.  The
interpreted engine realizes this by re-running every conjunct against every
partial binding — O(terms) work per extension attempt.

:class:`CompiledGuard` lowers each conjunct to a closure once (via
:meth:`~repro.dsms.expressions.Expression.compile`) and splits the
conjunction by the aliases each term references:

* **admission terms** reference exactly one operator alias.  They can be
  decided the moment a tuple arrives for that argument — a tuple failing
  its single-alias conjunct can never appear in any successful binding, so
  operators may drop it before it ever enters history.
* **cross terms** reference two or more aliases (or none statically) and
  must stay in the pairing-time check.

When every conjunct is an admission term, ``cross_free`` is True and the
pairing check degenerates to a constant — which re-enables RECENT-mode
dominated-tuple purging, normally unsound under a guard.

The guard remains a plain ``Callable[[Mapping[str, Any]], bool]`` (the
:data:`~repro.core.operators.base.Guard` contract): calling it runs the
full lenient conjunction, so operators that do not know about the split
(star / EXCEPTION_SEQ) still get compiled-closure speed.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Mapping, Sequence

from ...dsms.errors import EslRuntimeError
from ...dsms.expressions import (
    CompileContext,
    Env,
    EvalFn,
    Expression,
    compile_pairing_vector,
    compile_vector,
)
from ...dsms.schema import Schema

__all__ = ["CompiledGuard", "build_compiled_guard"]


def _lenient(fn: EvalFn) -> Callable[[Env], bool]:
    """Wrap a compiled term with the lenient-pass discipline.

    Mirrors ``_eval_term_lenient``: unbound aliases raise EslRuntimeError and
    star-run list bindings raise TypeError; both count as "cannot be checked
    yet" and pass.
    """

    def check(env: Env) -> bool:
        try:
            return fn(env) is not False
        except (EslRuntimeError, TypeError):
            return True

    return check


def _term_aliases(term: Expression, known: Mapping[str, Any]) -> set[str] | None:
    """The operator aliases *term* references, or None when indeterminate.

    A bare (unqualified) column reference resolves dynamically against
    whatever is bound, so such a term cannot be split — treat it as a cross
    term.
    """
    aliases: set[str] = set()
    for alias, _field in term.references():
        if alias is None:
            return None
        key = alias.lower()
        if key not in known:
            return None  # references something outside the operator args
        aliases.add(key)
    return aliases


class CompiledGuard:
    """A guard lowered to closures and split by referenced aliases.

    Callable with the full (or partial) alias->binding mapping, like any
    :data:`Guard`.  Operators aware of the split use :meth:`admit` at
    arrival time and :meth:`pairing` while pairing candidates whose
    members all passed admission.
    """

    __slots__ = (
        "_admission", "_cross", "_env", "_admission_terms",
        "_cross_terms", "_ctx", "aliases",
    )

    def __init__(
        self,
        admission: Mapping[str, Sequence[Callable[[Env], bool]]],
        cross: Sequence[Callable[[Env], bool]],
        env: Env,
        admission_terms: Mapping[str, Sequence[Expression]] | None = None,
        cross_terms: Sequence[tuple[Expression, frozenset | None]] | None = None,
        ctx: CompileContext | None = None,
    ) -> None:
        self._admission = {alias.lower(): tuple(fns) for alias, fns in admission.items()}
        self._cross = tuple(cross)
        # One scratch Env reused across calls: guard evaluation is
        # synchronous and operator-local, so rebinding per call is safe and
        # avoids an allocation per check.
        self._env = env
        # Raw expression IR of the admission terms, kept so the vectorized
        # admission tier can re-lower them against a concrete stream schema
        # (compile() bakes in Env access; compile_vector() needs columns).
        self._admission_terms = {
            alias.lower(): tuple(terms)
            for alias, terms in (admission_terms or {}).items()
        }
        # Cross-term IR with the (lower-cased) alias sets each references,
        # kept for the pairing mask tiers (None = indeterminate — bare
        # references — never maskable).
        self._cross_terms = tuple(cross_terms or ())
        self._ctx = ctx
        self.aliases = frozenset(self._admission)

    @property
    def cross_free(self) -> bool:
        """True when no conjunct spans multiple aliases."""
        return not self._cross

    def admit(self, alias: str, bound: Any) -> bool:
        """Decide *alias*'s single-alias conjuncts for one candidate binding."""
        fns = self._admission.get(alias.lower())
        if not fns:
            return True
        env = self._env
        env.bindings = {alias.lower(): bound}
        for fn in fns:
            if not fn(env):
                return False
        return True

    def vector_admission(
        self, alias: str, schema: Schema
    ) -> Callable[[Any, Any, int], Any] | None:
        """A whole-batch admission mask for *alias*, or None if unavailable.

        Lowers every one of *alias*'s admission terms with
        :func:`~repro.dsms.expressions.compile_vector` against *schema*
        (the stream delivering that argument).  The returned closure maps
        a batch's ``(columns, timestamps, n)`` to a per-row boolean list:
        True rows may be admitted by :meth:`admit`, False rows are
        guaranteed to fail it.  Matching the lenient discipline, a term
        value that is not False (True or NULL) passes; if evaluation
        raises, the closure returns None — "mask unavailable, materialize
        everything" — and the scalar re-check preserves exact semantics.
        """
        terms = self._admission_terms.get(alias.lower())
        if not terms:
            return None
        fns = []
        for term in terms:
            fn = compile_vector(term, schema, alias)
            if fn is None:
                return None
            fns.append(fn)
        if len(fns) == 1:
            sole = fns[0]

            def single_mask(cols: Any, tss: Any, n: int) -> list | None:
                try:
                    return [value is not False for value in sole(cols, tss, n)]
                except Exception:  # noqa: BLE001 - any error -> scalar path
                    return None

            return single_mask

        def mask(cols: Any, tss: Any, n: int) -> list | None:
            try:
                out = [True] * n
                for fn in fns:
                    values = fn(cols, tss, n)
                    for index in range(n):
                        if values[index] is False:
                            out[index] = False
                return out
            except Exception:  # noqa: BLE001 - any error -> scalar path
                return None

        return mask

    def pairing(self, bindings: Mapping[str, Any]) -> bool:
        """Check only the cross-alias conjuncts (members already admitted)."""
        if not self._cross:
            return True
        env = self._env
        env.bindings = {alias.lower(): bound for alias, bound in bindings.items()}
        for fn in self._cross:
            if not fn(env):
                return False
        return True

    def pairing_prebound(self, bindings: Mapping[str, Any]) -> bool:
        """:meth:`pairing` for bindings whose keys are already lower-cased.

        The indexed SEQ enumeration keeps one scratch bindings dict (keyed
        by lower-cased alias) alive across all candidates of a scan, so
        the per-candidate dict rebuild of :meth:`pairing` vanishes from
        the hot loop; the env is simply repointed at the scratch mapping.
        """
        if not self._cross:
            return True
        env = self._env
        env.bindings = bindings  # type: ignore[assignment]
        for fn in self._cross:
            if not fn(env):
                return False
        return True

    def vector_pairing(
        self,
        alias: str,
        schema: Schema,
        bound_aliases: Iterable[str],
    ) -> Callable[[Any, Any, int], Any] | None:
        """A candidate-slice pairing mask for one chain stage, or None.

        *alias* is the stage whose history is scanned, *bound_aliases*
        the stages already bound whenever that scan runs (for SEQ's
        right-to-left enumeration: every later argument).  A cross term
        is stage-decidable when it references *alias* and only otherwise
        bound aliases; the decidable terms the vectorized tier can
        express (:func:`compile_pairing_vector` closures over the
        mirror's object columns) make up the mask — the rest are left
        out, since every mask survivor is re-checked by the scalar
        :meth:`pairing` anyway.

        Returns ``mask_fn(bindings, store, n)``, mapping the live
        (lower-cased) bindings and a
        :class:`~repro.dsms.columns.ColumnStore` prefix to a boolean mask
        (False rows are guaranteed scalar-rejected) or None for "no mask
        this call".  Returns None when no term is maskable at all.
        """
        if self._ctx is None or not self._cross_terms:
            return None
        cand = alias.lower()
        bound = {name.lower() for name in bound_aliases}
        known = bound | {cand}
        vector_fns = tuple(
            fn
            for fn in (
                compile_pairing_vector(term, schema, alias, self._ctx, bound)
                for term, refs in self._cross_terms
                if refs is not None and cand in refs and refs <= known
            )
            if fn is not None
        )
        if not vector_fns:
            return None
        env = self._env

        def stage_mask(bindings: Any, store: Any, n: int) -> Any:
            try:
                env.bindings = bindings
                out = [True] * n
                cols = store.columns
                tss = store.timestamps
                for fn in vector_fns:
                    values = fn(env, cols, tss, n)
                    for index in range(n):
                        if values[index] is False:
                            out[index] = False
                return out
            except Exception:  # noqa: BLE001 - any error -> scalar path
                return None

        return stage_mask

    def __call__(self, bindings: Mapping[str, Any]) -> bool:
        """Full lenient conjunction — the plain :data:`Guard` contract."""
        env = self._env
        env.bindings = {alias.lower(): bound for alias, bound in bindings.items()}
        admission = self._admission
        for key in env.bindings:
            for fn in admission.get(key, ()):
                if not fn(env):
                    return False
        for fn in self._cross:
            if not fn(env):
                return False
        return True


def build_compiled_guard(
    terms: Iterable[Expression],
    ctx: CompileContext,
    arg_aliases: Iterable[str],
) -> CompiledGuard:
    """Compile guard *terms*, splitting them over *arg_aliases*."""
    known = {alias.lower(): None for alias in arg_aliases}
    admission: dict[str, list[Callable[[Env], bool]]] = {}
    admission_terms: dict[str, list[Expression]] = {}
    cross: list[Callable[[Env], bool]] = []
    cross_terms: list[tuple[Expression, frozenset | None]] = []
    for term in terms:
        fn = _lenient(term.compile(ctx))
        aliases = _term_aliases(term, known)
        if aliases is not None and len(aliases) == 1:
            alias = next(iter(aliases))
            admission.setdefault(alias, []).append(fn)
            admission_terms.setdefault(alias, []).append(term)
        else:
            cross.append(fn)
            cross_terms.append(
                (term, frozenset(aliases) if aliases is not None else None)
            )
    return CompiledGuard(
        admission, cross, Env(functions=ctx.functions), admission_terms,
        cross_terms, ctx,
    )
