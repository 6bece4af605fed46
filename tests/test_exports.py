import importlib
import pkgutil

import granule


def test_every_exported_name_resolves():
    names = ["granule"] + [f"granule.{m.name}" for m in pkgutil.iter_modules(granule.__path__)]
    modules = {name: importlib.import_module(name) for name in names}
    missing = [
        f"{name}.{attr}"
        for name, module in modules.items()
        for attr in getattr(module, "__all__", ())
        if not hasattr(module, attr)
    ]
    assert len(modules) > 1 and not missing, missing


def test_benchmark_names_resolve():
    # the benchmark imports or wraps these: without one a workload fails or its layer metrics go missing
    from granule import ball_algebra, ball_kmeans, cli, existential, granular_ball, rough_random

    needed = [
        (ball_kmeans, "init_clusters"),
        (cli, "load_csv"),
        (cli, "run"),
        (granular_ball, "split"),
        (granular_ball, "make_ball"),
        (granular_ball, "heterogeneous_overlap"),
        (existential, "check_admissible"),
        (rough_random.ApproxSpace, "approx"),
        (ball_algebra.AmbientBall, "contains"),
        (ball_algebra.CautiousBall, "contains"),
    ]
    missing = [f"{owner.__name__}.{attr}" for owner, attr in needed if not callable(getattr(owner, attr, None))]
    assert not missing, missing
