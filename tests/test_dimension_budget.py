"""One dimension budget: `errors.DIMENSION_LIMITS` is the only table of
dimension limits and `errors.check_dimension` the only code that words a
refusal.  No other module may define a dimension-limit constant or build
the "needs allow_high_dimension=True" message; both are found with the
standard `ast` module (f-string parts are string constants too)."""

import ast
from pathlib import Path

import pytest

from csdepth.errors import DIMENSION_LIMITS, InputError, check_dimension

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "csdepth"
BUDGET_MODULE = PACKAGE / "errors.py"


def _offences(path: Path) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        targets = node.targets if isinstance(node, ast.Assign) else \
            [node.target] if isinstance(node, ast.AnnAssign) else []
        found += [f"{path.stem}: constant {t.id}" for t in targets
                  if isinstance(t, ast.Name) and t.id.isupper() and "DIMENSION" in t.id]
        if (isinstance(node, ast.Constant) and isinstance(node.value, str)
                and "needs allow_high_dimension" in node.value):
            found.append(f"{path.stem}: refusal message at line {node.lineno}")
    return found


def test_the_policy_lives_in_one_module():
    offences = [o for path in sorted(PACKAGE.glob("*.py")) if path != BUDGET_MODULE
                for o in _offences(path)]
    assert not offences, f"dimension policy outside errors.py: {offences}"


def test_the_budget_module_holds_it():
    assert _offences(BUDGET_MODULE)


@pytest.mark.parametrize("work", sorted(DIMENSION_LIMITS))
def test_each_limit_refuses_the_next_dimension(work):
    limit = DIMENSION_LIMITS[work]
    check_dimension(work, limit)
    with pytest.raises(InputError, match=f"^{work} in dimension {limit + 1} "):
        check_dimension(work, limit + 1)


def test_subset_depth_offers_no_override():
    with pytest.raises(InputError) as refused:
        check_dimension("subset depth", 6)
    assert "allow_high_dimension" not in str(refused.value)
