"""The public namespace: `sira.__all__` names exactly what the package
exports, and each module reaches the others through public names only."""

import ast
from pathlib import Path

import sira

DELETED = {
    "beta22_pdf",
    "total_value_cdf",
    "sample_agent_valuation",
    "equilibrium_utility",
    "compare_pair",
    "realize_utility",
    "award_premiums_independent",
    "EmpiricalDistribution",
    "empirical_pdf_cdf",
    "BidDecision",
}


def test_all_resolves_without_duplicates():
    for name in sira.__all__:
        assert hasattr(sira, name), name
    assert len(sira.__all__) == len(set(sira.__all__))


def test_deleted_scalar_views_are_not_exported():
    assert DELETED.isdisjoint(sira.__all__)
    assert not any(hasattr(sira, name) for name in DELETED)
    assert not hasattr(sira.SafetyCostModel, "cost")
    assert not hasattr(sira.AuctionReport, "cumulative_utility_by_round")


def _is_private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def test_no_module_imports_a_private_name_from_another():
    private = []
    for path in sorted(Path(sira.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                private += [f"{path.name}: {a.name}" for a in node.names if _is_private(a.name)]
    assert private == []
