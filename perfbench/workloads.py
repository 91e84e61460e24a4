"""The two workloads: seeded inputs, the timed call and its checks.

Every workload turns ``(seed, block index)`` into one block of items,
runs each item through opdiscord's public API (the timed call) and then,
outside the timed region, checks each result against a reference that
does not come from the code under test where one exists.
"""

from __future__ import annotations

import importlib
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg  # noqa: F401  (the qutrit refinement imports it lazily; load it before timing)

import references as ref
from theories import THEOREM3_POLYTOPES

# tolerances of the checks
EXACT_TOL = 1e-8  # LP values against HiGHS, closed forms against the search
CERT_TOL = 1e-9  # certificate effects: validity and attained value
SAME_TOL = 1e-12  # a CLI report against the library's own value

QUTRIT_GRID = 200  # grid_points for qutrit (x) qubit states
# Bloch grid of the certified lower bound.  The library's default (46 x 90)
# takes about 19 s on the witness below; 14 x 28 takes about 1.8 s, as long
# as a search item, and still certifies a positive bound (0.032).
CERTIFY_GRID = {"n_theta": 14, "n_phi": 28}


@dataclass
class Item:
    kind: str
    args: tuple
    extra: dict = field(default_factory=dict)


@dataclass
class Outcome:
    """A checked item.  ``reported`` is set where ``reference`` (an exact
    value) or ``lower`` (a lower bound the item reports or is checked
    against) is known."""

    ok: bool
    note: str = ""
    reported: float | None = None
    reference: float | None = None
    lower: float | None = None


def _density(d: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    m = g @ g.conj().T
    return m / np.trace(m).real


def _unitary_rows(d: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(g)
    return (q * (np.diagonal(r) / np.abs(np.diagonal(r)))).T


def _cq_matrix(da: int, db: int, rng: np.random.Generator) -> np.ndarray:
    """``sum_k q_k |k><k| (x) sigma_k`` in a random basis: null discord."""
    kets = _unitary_rows(da, rng)
    weights = rng.dirichlet(np.ones(da))
    return sum(
        w * np.kron(np.outer(k, k.conj()), _density(db, rng)) for w, k in zip(weights, kets)
    )


def _polytope_point(theory, rng: np.random.Generator) -> np.ndarray:
    pure = theory.pure_state_coords
    return rng.dirichlet(np.ones(pure.shape[0])) @ pure


def _witness_matrix() -> np.ndarray:
    """The qubit's Theorem 3 witness: the uniform mixture of rho (x) rho
    over the tomographic states |0>, |1>, |+>, |+i> (the first candidate
    ``find_witness`` tries)."""
    kets = [np.array(k, dtype=complex) for k in ([1, 0], [0, 1], [1, 1], [1, 1j])]
    kets = [k / np.linalg.norm(k) for k in kets]
    return sum(np.kron(np.outer(k, k.conj()), np.outer(k, k.conj())) for k in kets) / 4


def _fail(note: str) -> Outcome:
    return Outcome(False, note)


class Workload:
    name = ""
    # CLI state kinds -> (first factor, second factor)
    SYSTEMS: dict[str, tuple[str, str]] = {}

    def __init__(self, od, theories: dict, workdir: str):
        self.od = od
        self.th = theories
        self.workdir = workdir
        self.cli = importlib.import_module("opdiscord.cli")
        self._families = {}
        self._library = {}

    def items(self, seed: int, index: int) -> list[Item]:
        raise NotImplementedError

    def run(self, item: Item):
        raise NotImplementedError

    def check(self, item: Item, result) -> Outcome:
        raise NotImplementedError

    def value(self, item: Item, result):
        """What must not change between two runs of one item."""
        raise NotImplementedError

    def warm_up(self) -> None:
        """Cheap calls through the same code, untimed and unchecked."""

    # -- shared checks -----------------------------------------------------

    def families(self, theory):
        """The library's family list, for the HiGHS reference to use."""
        if theory.name not in self._families:
            self._families[theory.name] = self.od.maximal_distinguishable_pure_families(theory)
        return self._families[theory.name]

    def check_upper_bound(self, rho, result) -> str | None:
        """A quantum discord value is the exact distance to its optimizer,
        and the certificate effect is valid and attains it."""
        od = self.od
        decomp = result.optimizer
        decomp.validate()
        recon = od.make_null_discord_state(decomp)
        distance = od.operational_distance(rho, recon)
        if abs(distance - result.value) > CERT_TOL:
            return f"value {result.value!r} != distance to optimizer {distance!r}"
        effect = result.certificate_effect
        od.validate_effect(effect, tol=CERT_TOL)
        attained = float(effect.coords @ (rho.coords - recon.coords))
        if abs(attained - result.value) > CERT_TOL:
            return f"certificate attains {attained!r}, value {result.value!r}"
        return None

    def check_polytope(self, rho, result, families) -> Outcome:
        """Exact polytope discord: decomposition, certificate and HiGHS value."""
        ab = rho.system
        decomp = result.optimizer
        decomp.validate()
        effect = result.certificate_effect.coords
        vals = ab.pure_state_coords @ effect
        if vals.min() < -CERT_TOL or vals.max() > 1.0 + CERT_TOL:
            return _fail(f"certificate leaves [0, 1] on product vertices: [{vals.min()}, {vals.max()}]")
        attained = float(effect @ (rho.coords - decomp.reconstruction_coords()))
        if abs(attained - result.value) > CERT_TOL:
            return _fail(f"certificate attains {attained!r}, value {result.value!r}")
        fa, fb = ab.factors
        expect = ref.polytope_discord(
            rho.coords,
            ab.pure_state_coords,
            [np.array([psi.coords for psi in fam]) for fam in families],
            fb.pure_state_coords,
        )
        ok = abs(result.value - expect) <= EXACT_TOL
        return Outcome(ok, "" if ok else f"discord {result.value!r} != HiGHS {expect!r}",
                       result.value, expect)

    # -- in-process CLI items --------------------------------------------------

    def cli_state(self, kind, rng):
        a, b = self.SYSTEMS[kind]
        ab = self.th[f"{a}*{b}"]
        if kind == "bell":
            ket = np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2)
            return ab.state_from_matrix(np.outer(ket, ket.conj()))
        if kind.startswith("cq-"):
            return ab.state_from_matrix(_cq_matrix(ab.factors[0].quantum_levels, 2, rng))
        if kind == "ginibre":
            return ab.state_from_matrix(_density(4, rng))
        if kind.startswith("product-"):
            fa, fb = ab.factors
            vertex = fa.pure_state_coords[rng.integers(fa.pure_state_coords.shape[0])]
            return ab.state(np.kron(vertex, _polytope_point(fb, rng)))
        return ab.state(_polytope_point(ab, rng))

    def _file(self, tag, kind, rho):
        a, b = self.SYSTEMS[kind]
        names = [self.th[a].name, self.th[b].name]
        path = os.path.join(self.workdir, f"{tag}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"systems": names, "coords": rho.coords.tolist()}, fh)
        return path

    def cli_item(self, tag, command, kind, rng) -> Item:
        """``opdiscord.cli.main`` running ``command`` on fresh JSON files."""
        states = [self.cli_state(kind, rng) for _ in range(2 if command == "distance" else 1)]
        paths = [self._file(f"{tag}-{j}", kind, s) for j, s in enumerate(states)]
        argv = [command, *paths, "--out", os.path.join(self.workdir, f"{tag}-out.json")]
        return Item(f"cli-{command}/{kind}", tuple(states), {"argv": argv})

    def _report(self, item):
        with open(item.extra["argv"][-1], encoding="utf-8") as fh:
            return json.load(fh)

    def cli_value(self, item, rc):
        report = self._report(item)
        report.pop("manifest")
        return rc, report

    def _library_discord(self, item):
        """The library's own value; Bell recurs every block, so it is kept."""
        key = item.kind if item.kind.endswith("/bell") else id(item)
        if key not in self._library:
            self._library[key] = self.od.discord(item.args[0]).value
        return self._library[key]

    def check_cli(self, item, rc) -> Outcome:
        if rc != 0:
            return _fail(f"exit code {rc}")
        report = self._report(item)
        command, kind = item.kind.removeprefix("cli-").split("/")
        if command == "null-check":
            expect = kind != "bell"
            ok = report["null_discord"] is expect
            return Outcome(ok, "" if ok else f"null_discord {report['null_discord']} on {kind}")
        if command == "distance":
            a, b = item.args
            if a.system.backend == "quantum":
                expect = ref.helstrom(a.matrix(), b.matrix())
            else:
                expect = ref.effect_maximum(a.system.pure_state_coords, a.coords - b.coords)
            library = self.od.operational_distance(a, b)
            ok = abs(report["distance"] - library) <= SAME_TOL and abs(library - expect) <= EXACT_TOL
            return Outcome(ok, "" if ok else f"distance {report['distance']!r} != {library!r} / {expect!r}")
        value = report["value"]
        library = self._library_discord(item)
        expect = 0.5 if kind == "bell" else 0.0
        if abs(value - library) > SAME_TOL:
            return _fail(f"CLI discord {value!r} != library {library!r}")
        if abs(value - expect) > EXACT_TOL:
            return _fail(f"discord {value!r} != expected {expect!r}")
        return Outcome(True, "", value, expect)


class Quantum(Workload):
    """Quantum theories: the grid search with refinement, the certified
    lower bound and the CLI.

    A block is 12 items of about 1.7 s, save three fast CLI items:

    * 7 ``search`` items, each ``discord`` then ``quantum_discord_entropy``
      on a discordant state: a Bell state (Phi+ or Psi-), a Werner state,
      2 Bell-diagonal states (closed-form references), 2 two-qubit and one
      qutrit (x) qubit Ginibre states;
    * one ``certify`` item, ``certified_discord_lower_bound`` on the
      qubit's Theorem 3 witness at ``CERTIFY_GRID``;
    * 4 ``cli`` items: ``discord`` on Bell (slow), ``null-check`` on a cq
      two-qubit and a cq qutrit (x) qubit state, where the fixed-point
      search succeeds early, and a ``distance`` pair.

    A quarter of the items are fast, so the median and the tail (ten
    samples beyond it) fall among the slow items.  The fast items are
    spread evenly through the block (see ``items``)."""

    name = "quantum"
    SYSTEMS = {
        "cq-2x2": ("qubit", "qubit"), "cq-3x2": ("qutrit", "qubit"),
        "bell": ("qubit", "qubit"), "ginibre": ("qubit", "qubit"),
    }

    def __init__(self, *args):
        super().__init__(*args)
        self.sim = importlib.import_module("opdiscord.simpliciality")
        self.witness = self.th["qubit*qubit"].state_from_matrix(_witness_matrix())
        self._witness_upper = None

    def items(self, seed, index):
        rng = np.random.default_rng([seed, index])
        qq, tq = self.th["qubit*qubit"], self.th["qutrit*qubit"]
        out = []

        def bell_diagonal(kind, weights):
            mat, c = ref.bell_diagonal_matrix(weights)
            out.append(Item(f"search/{kind}", (qq.state_from_matrix(mat),), {
                "discord": ref.bell_diagonal_discord(c),
                "entropic": ref.bell_diagonal_entropic_discord(weights, c),
            }))

        bell_diagonal("bell", [1.0, 0.0, 0.0, 0.0] if index % 2 == 0 else [0.0, 0.0, 0.0, 1.0])
        p = rng.uniform(0.2, 0.95)
        bell_diagonal("werner", [(1 - p) / 4] * 3 + [(1 + 3 * p) / 4])
        for _ in range(2):
            bell_diagonal("bell-diagonal", rng.dirichlet(np.ones(4)))
        for _ in range(2):
            out.append(Item("search/ginibre-2x2", (qq.state_from_matrix(_density(4, rng)),)))
        out.append(Item("search/ginibre-3x2", (tq.state_from_matrix(_density(6, rng)),)))
        out.append(self.cli_item(f"b{index}-bell", "discord", "bell", rng))
        fast = [
            self.cli_item(f"b{index}-{i}", command, kind, rng)
            for i, (command, kind) in enumerate(
                (("null-check", "cq-2x2"), ("null-check", "cq-3x2"), ("distance", "ginibre"))
            )
        ]
        # The certified bound leads each block, so even a short run has one.
        # Every third item after it is a fast one, so a run that stops
        # inside a block still has about a quarter fast items.
        slow = [out[i] for i in rng.permutation(len(out))]
        fast = [fast[i] for i in rng.permutation(len(fast))]
        block = [Item("certify/witness", (self.witness,))]
        for i in range(0, len(slow), 2):
            block += slow[i:i + 2] + fast[i // 2:i // 2 + 1]
        return block

    def _config(self, rho):
        if rho.system.factors[0].quantum_levels == 2:
            return None
        return self.od.SearchConfig(grid_points=QUTRIT_GRID)

    def warm_up(self):
        """A tiny search on each system and one cheap CLI run, so lazy
        imports and first-call set-up are not timed with the first item."""
        rng = np.random.default_rng(0)
        tiny = self.od.SearchConfig(grid_points=4, refine_iters=3, restarts=1)
        for name, d in (("qubit*qubit", 4), ("qutrit*qubit", 6)):
            rho = self.th[name].state_from_matrix(_density(d, rng))
            self.od.discord(rho, tiny)
            self.od.quantum_discord_entropy(rho, tiny)
        self.sim.certified_discord_lower_bound(self.witness, n_theta=2, n_phi=2, iters=2)
        self.run(self.cli_item("warm-up", "null-check", "cq-2x2", rng))

    def run(self, item):
        if item.kind.startswith("cli-"):
            return self.cli.main(item.extra["argv"])
        rho = item.args[0]
        if item.kind.startswith("certify/"):
            return self.sim.certified_discord_lower_bound(rho, **CERTIFY_GRID)
        cfg = self._config(rho)
        return self.od.discord(rho, cfg), self.od.quantum_discord_entropy(rho, cfg)

    def value(self, item, result):
        if item.kind.startswith("cli-"):
            return self.cli_value(item, result)
        if item.kind.startswith("certify/"):
            return result
        return result[0].value, result[1].discord_value

    def check(self, item, result):
        if item.kind.startswith("cli-"):
            return self.check_cli(item, result)
        if item.kind.startswith("certify/"):
            return self._check_certified(result)
        rho = item.args[0]
        dis, ent = result
        problem = self.check_upper_bound(rho, dis)
        if problem:
            return _fail(problem)
        basis = np.asarray(ent.optimal_measurement)
        if np.max(np.abs(basis @ basis.conj().T - np.eye(len(basis)))) > 1e-8:
            return _fail("entropic optimal measurement is not orthonormal")
        if ent.discord_value < 0.0 or ent.J_value > ent.mutual_information + 1e-9:
            return _fail(f"entropic discord {ent.discord_value!r} outside [0, I]")
        if "discord" not in item.extra:
            return Outcome(True)
        expect, expect_ent = item.extra["discord"], item.extra["entropic"]
        if not expect - 1e-12 <= dis.value <= expect + EXACT_TOL:
            return _fail(f"discord {dis.value!r} != closed form {expect!r}")
        if abs(ent.discord_value - expect_ent) > EXACT_TOL:
            return _fail(f"entropic discord {ent.discord_value!r} != closed form {expect_ent!r}")
        return Outcome(True, "", dis.value, expect)

    def _check_certified(self, lower):
        """The certified bound must be positive and sit below the search's
        upper bound on the same witness, itself checked as an upper bound."""
        if self._witness_upper is None:
            upper = self.od.discord(self.witness)
            problem = self.check_upper_bound(self.witness, upper)
            if problem:
                return _fail(problem)
            self._witness_upper = upper.value
        if not 0.0 < lower <= self._witness_upper:
            return _fail(f"certified bound {lower!r} not in (0, upper {self._witness_upper!r}]")
        return Outcome(True, "", self._witness_upper, None, lower)


class Polytope(Workload):
    """Polytope theories: exact discord LPs, half-space distance LPs, the
    Theorem 3 panel's polytope rows and one CLI null-check.

    Latency rises in the order classical(3), distance pair, gbit,
    polygon(5), (6), (8); eight polygon(5) items put the median inside one
    block, and the tail (ten samples beyond it) falls among the polygon(8)
    items.  The ``theorem3`` rows (5-75 ms) and the CLI item sit among
    the fast and middle items."""

    name = "polytope"
    # discord items per theory and block
    STATES = {"classical(3)": 2, "gbit": 4, "polygon(5)": 8, "polygon(6)": 4, "polygon(8)": 4}
    PAIRS = 4  # polygon(8) distance pairs per block
    WITNESS = {"gbit", "polygon(5)"}  # the non-simplicial theories of the panel
    SYSTEMS = {"product-p5": ("polygon(5)", "polygon(5)")}

    def __init__(self, *args):
        super().__init__(*args)
        self._witness_refs = {}

    def items(self, seed, index):
        rng = np.random.default_rng([seed, index])
        out = []
        for name, count in self.STATES.items():
            ab = self.th[f"{name}*{name}"]
            out += [Item("discord", (ab.state(_polytope_point(ab, rng)),)) for _ in range(count)]
        ab = self.th["polygon(8)*polygon(8)"]
        for _ in range(self.PAIRS):
            out.append(Item("distance", (ab.state(_polytope_point(ab, rng)), ab.state(_polytope_point(ab, rng)))))
        cfg = self.od.SearchConfig(seed=seed)
        out += [Item(f"theorem3/{name}", (self.th[name], cfg)) for name in THEOREM3_POLYTOPES]
        out.append(self.cli_item(f"b{index}", "null-check", "product-p5", rng))
        return [out[i] for i in rng.permutation(len(out))]

    def warm_up(self):
        ab = self.th["classical(3)*classical(3)"]
        self.od.discord(ab.state(np.full(9, 1 / 9)))
        self.od.theorem3_report([self.th["classical(2)"]])
        self.run(self.cli_item("warm-up", "null-check", "product-p5", np.random.default_rng(0)))

    def run(self, item):
        if item.kind.startswith("cli-"):
            return self.cli.main(item.extra["argv"])
        if item.kind.startswith("theorem3/"):
            return self.od.theorem3_report([item.args[0]], item.args[1])[0]
        if item.kind == "distance":
            return self.od.operational_distance(*item.args)
        return self.od.discord(item.args[0])

    def value(self, item, result):
        if item.kind.startswith("cli-"):
            return self.cli_value(item, result)
        if item.kind.startswith("theorem3/"):
            return result.is_simplex, result.witness_found, result.discord_lower_bound
        return result if item.kind == "distance" else result.value

    def check(self, item, result):
        if item.kind.startswith("cli-"):
            return self.check_cli(item, result)
        if item.kind.startswith("theorem3/"):
            return self._check_row(item, result)
        if item.kind == "distance":
            a, b = item.args
            expect = ref.effect_maximum(a.system.pure_state_coords, a.coords - b.coords)
            ok = abs(result - expect) <= EXACT_TOL
            return Outcome(ok, "" if ok else f"distance {result!r} != HiGHS {expect!r}")
        rho = item.args[0]
        return self.check_polytope(rho, result, self.families(rho.system.factors[0]))

    def _witness_reference(self, theory, cfg):
        """``find_witness`` on the row's input, and HiGHS on its state.  One
        run passes one config, so this is computed once per theory."""
        key = (theory.name, cfg.seed)
        if key not in self._witness_refs:
            found = self.od.find_witness(theory, cfg)
            result = self.od.discord(found.state, cfg)
            self._witness_refs[key] = (found, self.check_polytope(found.state, result, self.families(theory)))
        return self._witness_refs[key]

    def _check_row(self, item, row):
        theory, cfg = item.args
        name = item.kind.removeprefix("theorem3/")
        witness = name in self.WITNESS
        if not row.consistent or row.witness_found != witness or row.is_simplex == witness:
            return _fail(f"row {row.theory}: simplex={row.is_simplex} witness={row.witness_found} "
                         f"consistent={row.consistent}")
        if not witness:
            ok = row.discord_lower_bound == 0.0
            return Outcome(ok, "" if ok else "simplicial row reports a positive bound")
        found, exact = self._witness_reference(theory, cfg)
        if not exact.ok:
            return exact
        if found.discord_lower_bound != row.discord_lower_bound:
            return _fail("row bound differs from find_witness on the same input")
        if abs(row.discord_lower_bound - exact.reference) > EXACT_TOL:
            return _fail(f"row bound {row.discord_lower_bound!r} != HiGHS {exact.reference!r}")
        return Outcome(True, "", row.discord_lower_bound, None, exact.reference)


WORKLOADS = {w.name: w for w in (Quantum, Polytope)}
