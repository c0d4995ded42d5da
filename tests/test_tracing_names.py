"""The benchmark's tracer (``perfbench/tracing.py``) wraps program
callables by module and qualified name, reading methods through the
class ``__dict__``; every name it lists must still resolve."""

import importlib
import importlib.util
import pathlib

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / \
    "tracing.py"


def test_traced_names_resolve():
    spec = importlib.util.spec_from_file_location("tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for module, qualname, *_ in tracing.SPANNED + tracing.COUNTED:
        mod = importlib.import_module(f"blobcell.{module}")
        if "." in qualname:
            cls_name, meth = qualname.split(".")
            assert meth in vars(getattr(mod, cls_name)), (module, qualname)
        else:
            assert callable(getattr(mod, qualname)), (module, qualname)
