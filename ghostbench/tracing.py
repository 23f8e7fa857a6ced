"""Per-layer spans recorded around calls into ``oamghost``'s public functions.

The wrappers live here, not in the package: ``install`` replaces each traced
function, in every loaded ``oamghost`` module that refers to it, with a
wrapper that adds its wall time to a named total. Spans nest (for example
``iter_lg_rasters`` inside ``object_spectrum``); ``top_s`` sums only the
outermost ones, so a job's time minus ``top_s`` is the time spent outside
every span.

Run as a script to trace one CLI job and write its totals as JSON:

    python ghostbench/tracing.py <spans.json> image [flags...]
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

# module -> {function: metric prefix}
TRACED = {
    "oamghost.spiral_imaging": {
        "object_spectrum": "spiral_imaging.object_spectrum",
        "render_pure_image": "spiral_imaging.render_pure_image",
        "render_background": "spiral_imaging.render_background",
        "read_pgm": "spiral_imaging.pgm_io",
        "write_pgm16": "spiral_imaging.pgm_io",
    },
    "oamghost.field_grid": {
        "iter_lg_rasters": "field_grid.lg_raster",
        "write_field": "field_grid.write_field",
    },
    "oamghost.thermal_source": {"csd_mode_decompose": "thermal_source.csd_mode_decompose"},
    "oamghost.quantum_correlations": {
        "assemble_density": "quantum_correlations.assemble_density",
        "separability_decomposition": "quantum_correlations.separability_decomposition",
        "brute_force_discord": "quantum_correlations.brute_force_discord",
        "discord_curve": "quantum_correlations.discord_curve",
    },
}
CPU_TIMED = {"spiral_imaging.object_spectrum"}


class Tracer:
    def __init__(self):
        self.totals: dict[str, float] = defaultdict(float)
        self.depth = 0

    def _enter(self):
        self.depth += 1
        return time.perf_counter(), time.process_time()

    def _leave(self, name: str, start: tuple[float, float]) -> None:
        wall = time.perf_counter() - start[0]
        self.depth -= 1
        self.totals[f"{name}_s"] += wall
        if name in CPU_TIMED:
            self.totals[f"{name}_cpu_s"] += time.process_time() - start[1]
        if self.depth == 0:
            self.totals["top_s"] += wall

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = self._enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._leave(name, start)
            if name == "quantum_correlations.assemble_density":
                self.totals["quantum_correlations.operator_bytes"] += 3 * result.d ** 4 * 8
            return result

        return wrapper

    def wrap_rasters(self, name: str, fn):
        """Time spent producing each raster, and the count and computed bytes of rasters."""

        @functools.wraps(fn)
        def wrapper(beam, spec, *args, **kwargs):
            gen = fn(beam, spec, *args, **kwargs)
            raster_bytes = spec.side_points ** 2 * 16
            while True:
                start = self._enter()
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    self._leave(name, start)
                self.totals["field_grid.lg_rasters"] += 1
                self.totals["field_grid.raster_bytes"] += raster_bytes
                yield item

        return wrapper

    def install(self) -> None:
        """Wrap every traced function wherever a loaded oamghost module binds it."""
        modules = [m for n, m in sys.modules.items() if n == "oamghost" or n.startswith("oamghost.")]
        for module_name, functions in TRACED.items():
            source = sys.modules[module_name]
            for fn_name, metric in functions.items():
                original = getattr(source, fn_name)
                if fn_name == "iter_lg_rasters":
                    wrapped = self.wrap_rasters(metric, original)
                else:
                    wrapped = self.wrap(metric, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapped)


if __name__ == "__main__":
    import oamghost.cli

    tracer = Tracer()
    tracer.install()
    code = oamghost.cli.main(sys.argv[2:])
    with open(sys.argv[1], "w") as fh:
        json.dump(tracer.totals, fh)
    sys.exit(code)
