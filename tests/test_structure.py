"""Cross-module structural invariants: the volcano regularity facts the
floor detection relies on, crater neighbour counts, embedding coherence on
deeper towers, the modular-data extension point and the caches keyed by
it, thread safety of the shared caches, that every cache lives in
`_cache`, and that the package defines nothing it does not use."""

import ast
import os
import pathlib
import shutil
import sys
import threading

import pytest

from cmgate import _cache
from cmgate import classpoly as cp
from cmgate import clear_caches
from cmgate import ecurve as ec
from cmgate import endoring as er
from cmgate import ffield as ff
from cmgate.errors import UnsupportedLevel


class TestVolcanoRegularity:
    @pytest.mark.parametrize("ell", [2, 3])
    def test_neighbor_count_is_one_or_full(self, ell):
        # for ordinary j (excluding 0 and 1728) inside a depth >= 1 volcano,
        # the multiplicity-counted rational neighbour total is either 1
        # (floor) or ell + 1 (strictly above the floor); the walk's floor
        # test depends on exactly this dichotomy
        for p in (5, 7, 11, 13, 17, 19, 23, 29, 31):
            ctx = ff.make_field(p, 1)
            exceptional = {0, 1728 % p}
            for n in range(p):
                if n in exceptional:
                    continue
                j = ctx.from_int(n)
                fd = ec.trace_of_j(j)
                if fd.t % p == 0:
                    continue
                _, f_pi = er.split_discriminant(fd.d_pi)
                if f_pi % ell:
                    continue
                count = er._rational_neighbor_count(j, ell)
                assert count in (1, ell + 1), (p, n, ell, count)

    def test_floor_count_matches_level(self, ):
        for p in (5, 13):
            ctx = ff.make_field(p, 1)
            for n in range(p):
                if n in (0, 1728 % p):
                    continue
                j = ctx.from_int(n)
                fd = ec.trace_of_j(j)
                if fd.t % p == 0:
                    continue
                _, f_pi = er.split_discriminant(fd.d_pi)
                if f_pi % 2:
                    continue
                level, depth = er.volcano_level(j, 2)
                count = er._rational_neighbor_count(j, 2)
                assert (count == 1) == (level == depth)


class TestModularDataTraceConsistency:
    @pytest.mark.parametrize("ell", [2, 3, 5, 7, 11, 13])
    def test_neighbors_share_squared_trace(self, ell):
        # curves joined by an ell-isogeny over F_q have equal point counts
        # up to quadratic twist, i.e. equal t^2; this checks the vendored
        # polynomial data against the independent point-counting kernel
        for p in (17, 19, 23):
            if p == ell:
                continue
            ctx = ff.make_field(p, 1)
            for n in (2, 5, 7, 11):
                j = ctx.from_int(n)
                t_here = ec.trace_of_j(j).t
                for nb in er._rational_neighbors(j, ell):
                    t_there = ec.trace_of_j(nb).t
                    assert t_there * t_there == t_here * t_here, (ell, p, n)


class TestCraterNeighbors:
    def test_split_prime_gives_two_horizontal_edges(self):
        # 2 splits in Q(sqrt(-15)); every H_-15 root must carry exactly two
        # horizontal 2-isogenies (counted with multiplicity) to same-order
        # vertices
        assert cp.kronecker(-15, 2) == 1
        H = cp.hilbert_mod_p(-15, 61)
        for r in H.roots:
            horizontal = 0
            for nb, mult in er.isogenous_neighbors(r, 2):
                try:
                    if er.provider_a_disc(nb).D == -15:
                        horizontal += mult
                except Exception:
                    continue
            assert horizontal == 2

    def test_inert_prime_gives_no_horizontal_edges(self):
        # an inert level admits no horizontal edges; rational Phi_7
        # neighbours of the H_-15 roots must all change the order (the
        # full-closure statement is inert_obstruction_check's job)
        assert cp.kronecker(-15, 7) == -1
        H = cp.hilbert_mod_p(-15, 61)
        from cmgate.errors import SupersingularInput, UnsupportedLevel

        for r in H.roots:
            for nb in er._rational_neighbors(r, 7):
                try:
                    assert er.provider_a_disc(nb).D != -15
                except (SupersingularInput, UnsupportedLevel):
                    continue


class TestEmbeddingTowers:
    @pytest.mark.parametrize("p,chain", [
        (7, (2, 4, 8)), (5, (3, 6)), (5, (2, 6)), (11, (2, 4)),
    ])
    def test_descend_embed_roundtrip(self, p, chain):
        for k in chain:
            ctx = ff.make_field(p, k)
            top = ff.make_field(p, chain[-1])
            x = ctx.gen() if k > 1 else ctx.from_int(3)
            assert ff.descend(ff.embed(x, top), ctx) == x

    def test_three_way_commutation(self):
        # both routes F_25 -> F_{5^12}? too big; use (2, 6) vs (2, 4) joins
        F25 = ff.make_field(5, 2)
        F56 = ff.make_field(5, 6)
        g = F25.gen()
        image = ff.embed(g, F56)
        # the image satisfies the source modulus, i.e. is a legitimate
        # conjugate embedding target
        acc = F56.zero()
        power = F56.one()
        for c in F25.modulus:
            acc = acc + power.scale(c)
            power = power * image
        assert acc.is_zero()

    def test_mixed_chain_commutes(self):
        F7 = ff.make_field(7, 1)
        F72 = ff.make_field(7, 2)
        F74 = ff.make_field(7, 4)
        for n in range(7):
            c = F7.from_int(n)
            assert ff.embed(ff.embed(c, F72), F74) == ff.embed(c, F74)


class TestDataDirOverride:
    PHI_2 = os.path.join(os.path.dirname(er.__file__), "data", "phi_2.txt")

    def phi_2_dir(self, path):
        """A data dir holding only the level-2 modular polynomial."""
        path.mkdir(exist_ok=True)
        shutil.copy(self.PHI_2, path)
        return str(path)

    def test_env_var_extends_levels(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CMGATE_DATA_DIR", self.phi_2_dir(tmp_path))
        assert er.supported_levels() == (2,)
        monkeypatch.delenv("CMGATE_DATA_DIR")
        assert er.supported_levels() == (2, 3, 5, 7, 11, 13)

    def test_results_follow_the_data_dir(self, tmp_path, monkeypatch):
        # no cache may serve a verdict computed under another data dir, in
        # either direction, and no manual clearing is needed for that
        F169 = ff.make_field(13, 2)
        phi_2_only = self.phi_2_dir(tmp_path)

        def unsupported():
            disc_map = er.ordinary_disc_map(ff.make_field(13, 2))
            return sum(v is er.UNSUPPORTED for v in disc_map.values())

        # the Phi_3 tables of a residue and a discrete-log kernel
        js = (ff.make_field(13, 1).from_int(5), F169.gen())

        for _ in range(2):
            monkeypatch.setenv("CMGATE_DATA_DIR", phi_2_only)
            assert unsupported() == 51
            with pytest.raises(UnsupportedLevel):
                cp.hilbert_mod_p(-27, 31)  # conductor 3 needs phi_3
            with pytest.raises(UnsupportedLevel, match="unclassifiable candidate"):
                cp.hilbert_mod_p(-20, 23)  # the roots' Frobenius conductor is 3
            # the root 1728 has |t| = 6; the j with |t| = 4 (Frobenius
            # conductor 3) stay unclassified, no fault once all h roots are found
            assert cp.hilbert_mod_p(-4, 13).poly.degree() == 1
            for j in js:
                with pytest.raises(UnsupportedLevel):
                    er.phi_at_j(3, j)
                with pytest.raises(UnsupportedLevel):
                    er._rational_neighbor_count(j, 3)
            monkeypatch.delenv("CMGATE_DATA_DIR")
            assert unsupported() == 0
            assert cp.hilbert_mod_p(-27, 31).poly.degree() == 1
            assert cp.hilbert_mod_p(-20, 23).poly.degree() == 2
            for j in js:
                assert er.phi_at_j(3, j).degree() == 4
                assert er._rational_neighbor_count(j, 3) in (0, 1, 2, 4)
        assert ff.make_field(13, 2) is F169
        clear_caches()
        # contexts are interned: ContextMismatch compares them by identity
        assert ff.make_field(13, 2) is F169

    def test_each_data_dir_listed_once(self, tmp_path, monkeypatch):
        dirs = [self.phi_2_dir(tmp_path / name) for name in ("a", "b")]
        listed = []
        listdir = os.listdir
        monkeypatch.setattr(os, "listdir", lambda path: listed.append(path) or listdir(path))
        for _ in range(3):
            for path in dirs:
                monkeypatch.setenv("CMGATE_DATA_DIR", path)
                assert er.supported_levels() == (2,)
        # a sweep reads the levels once per classified j
        er.ordinary_disc_map(ff.make_field(11, 2))
        assert listed == dirs


class TestThreadSafety:
    def test_concurrent_shared_caches(self):
        ctx = ff.make_field(13, 2)
        errors = []

        def worker():
            try:
                dm = er.ordinary_disc_map(ctx)
                assert len(dm) == 169
                H = cp.hilbert_mod_p(-8, 17)
                assert H.poly.degree() == 1
                assert ff.make_field(13, 2).log is not None
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors

    def test_make_field_publishes_one_complete_context(self, monkeypatch):
        # racing first calls must all get the same context, tables built
        monkeypatch.setitem(_cache._stores, "ctx", {})
        seen, errors = [], []

        def worker():
            try:
                ctx = ff.make_field(13, 2)
                seen.append((ctx, len(ctx.log), len(ctx.zech)))
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors and len(seen) == 8
        assert len({id(ctx) for ctx, _, _ in seen}) == 1
        assert all(n_log == 169 and n_zech == 168 for _, n_log, n_zech in seen)


class TestNoDeadDefinitions:
    PACKAGE = pathlib.Path(ff.__file__).parent

    # called only from the tests, each kept for the reason given
    TEST_REFERENCE_APIS = {
        "FieldCtx.from_coeffs": "builds elements from coefficient vectors "
                                "in the field differential tests",
        "FieldElement.lift": "reads a prime-field element as an int in tests",
        "EllipticCurve.base_change": "the base-change invariance test",
        "reference_table": "the vendored H_D oracle the tests compare against",
        "rational_roots": "the UniPoly entry to kernel_rational_roots that the "
                          "root-finding differential tests drive",
    }

    @staticmethod
    def definitions(tree):
        """Qualified names of module-level functions and classes and of
        their methods, dunders excluded."""
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                yield node.name
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, ast.FunctionDef) and not (
                        sub.name.startswith("__") and sub.name.endswith("__")
                    ):
                        yield f"{node.name}.{sub.name}"

    def test_every_definition_is_used(self):
        # each name must be read somewhere in the package code, as a name or
        # an attribute (f-strings included), not merely mentioned in prose
        trees = {path: ast.parse(path.read_text()) for path in sorted(self.PACKAGE.glob("*.py"))}
        used = set()
        for tree in trees.values():
            for node in ast.walk(tree):
                if isinstance(node, ast.Name):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
        unused = [
            qualname
            for tree in trees.values()
            for qualname in self.definitions(tree)
            if qualname.rsplit(".", 1)[-1] not in used
        ]
        assert sorted(unused) == sorted(self.TEST_REFERENCE_APIS)


class TestInternalChecks:
    PACKAGE = pathlib.Path(ff.__file__).parent

    def test_checks_raise_internal_invariant(self):
        # an internal check raises InternalInvariant (exit 3, and it survives
        # python -O); neither an assert statement nor AssertionError does both
        found = []
        for path in sorted(self.PACKAGE.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Assert):
                    found.append(f"{path.name}:{node.lineno}: assert")
                elif isinstance(node, ast.Raise) and node.exc is not None:
                    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                    if getattr(exc, "id", None) == "AssertionError":
                        found.append(f"{path.name}:{node.lineno}: raise AssertionError")
        assert found == []


class TestOneCacheModule:
    PACKAGE = pathlib.Path(ff.__file__).parent
    MUTATORS = {"setdefault", "update", "pop", "popitem", "clear"}

    @staticmethod
    def module_bindings(tree):
        """(name, value) of each module-level assignment."""
        for node in tree.body:
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets, value = [node.target], node.value
            else:
                continue
            for target in targets:
                if isinstance(target, ast.Name):
                    yield target.id, value

    @staticmethod
    def called(value) -> str | None:
        if isinstance(value, ast.Call):
            func = value.func
            return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        return None

    def written(self, trees, name) -> bool:
        """Whether any module stores into `name` (or `module.name`)."""

        def is_name(node):
            return (isinstance(node, ast.Name) and node.id == name) or (
                isinstance(node, ast.Attribute) and node.attr == name)

        for tree in trees:
            for node in ast.walk(tree):
                if isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store):
                    if is_name(node.value):
                        return True
                if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                        and node.func.attr in self.MUTATORS and is_name(node.func.value)):
                    return True
        return False

    def test_caches_live_only_in_the_cache_module(self):
        # a module-level lock, a dict that starts empty or is written into,
        # or a memoising decorator is a cache; `_cache` is its one home
        trees = {
            path.name: ast.parse(path.read_text())
            for path in sorted(self.PACKAGE.glob("*.py"))
        }
        found = []
        for filename, tree in trees.items():
            if filename == "_cache.py":
                continue
            for name, value in self.module_bindings(tree):
                if self.called(value) in ("Lock", "RLock"):
                    found.append(f"{filename}:{name}")
                elif isinstance(value, (ast.Dict, ast.DictComp)) or self.called(value) == "dict":
                    empty = isinstance(value, ast.Dict) and not value.keys
                    if empty or self.written(trees.values(), name):
                        found.append(f"{filename}:{name}")
            for node in tree.body:
                for deco in getattr(node, "decorator_list", ()):
                    target = deco.func if isinstance(deco, ast.Call) else deco
                    if getattr(target, "attr", getattr(target, "id", None)) in (
                            "cache", "lru_cache"):
                        found.append(f"{filename}:{node.name}")
        assert found == []

    def test_only_the_cache_module_imports_threading(self):
        # one lock policy: `_cache.publish`, not a lock per module or context
        importers = []
        for path in sorted(self.PACKAGE.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                names = [a.name for a in node.names] if isinstance(node, ast.Import) else (
                    [node.module] if isinstance(node, ast.ImportFrom) else [])
                if "threading" in names:
                    importers.append(path.name)
        assert importers == ["_cache.py"]

    def test_clear_caches_drops_embeddings(self, monkeypatch):
        # the contexts stay interned, but nothing derived from them survives
        x, F625 = ff.make_field(5, 2).gen(), ff.make_field(5, 4)
        image = ff.embed(x, F625)
        clear_caches()
        calls = []
        solve = ff._solve_mod_p
        monkeypatch.setattr(ff, "_solve_mod_p", lambda *a: calls.append(a) or solve(*a))
        assert ff.embed(x, F625) == image
        assert calls
