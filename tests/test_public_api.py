"""The package namespace exports exactly its ``__all__``, names nothing it
has dropped, and the README's library quickstart gives what its comments
say."""

import inspect
import pathlib
import types

import tripowmin
from tripowmin import Point, Verdict

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_public_names_are_exactly_all():
    public = {
        name for name in dir(tripowmin)
        if not name.startswith("_")
        and not isinstance(getattr(tripowmin, name), types.ModuleType)
    }
    assert public == set(tripowmin.__all__) - {"__version__"}
    assert len(tripowmin.__all__) == 27


def test_dropped_names_stay_dropped():
    # the n = 1 vertex rule is the closed form's n -> 1+ limit
    for name in ("minimize_n1", "VertexMinimum"):
        assert not hasattr(tripowmin, name), name
        assert not hasattr(tripowmin.closed_form, name), name
    for name in ("gradient", "hessian", "HessianInfo"):
        assert not hasattr(tripowmin.kkt, name), name
    assert not hasattr(tripowmin.Isometry, "to_canonical")
    assert not hasattr(tripowmin.GeneralTriangle, "vertex_array")
    assert not hasattr(tripowmin.CanonicalTriangle, "p")
    assert not hasattr(tripowmin.CanonicalTriangle, "q")
    # the certificate's band is fixed by the point's rounding, not a parameter
    assert list(inspect.signature(tripowmin.kkt_residual).parameters) == [
        "tri", "n", "point"
    ]


def test_readme_library_quickstart_gives_what_its_comments_say():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quickstart", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    names = {}
    exec(code, names)
    res, motion, report = names["res"], names["motion"], names["report"]
    assert res.point_canonical == Point(0.2187500000000001, 0.8437500000000001)
    assert res.value == 2.53125
    # the triangle is given in the apex frame already
    assert motion.to_original(res.point_canonical) == res.point_canonical
    assert report.verdict is Verdict.SATISFIED
    assert report.stationarity_residual < 1e-15
    assert report.hessian_det > 0
    assert names["compare"](names["tri"], 2.0).passed
